//! The barrel shifter: shift kinds and their carry-exact evaluation.
//!
//! Data-processing instructions may route their second operand through the
//! barrel shifter. The shifter produces both a value and a carry-out, which
//! flag-setting logical instructions copy into the C flag.

use std::fmt;

/// A barrel-shifter operation kind.
///
/// # Examples
///
/// ```
/// use wp_isa::ShiftKind;
/// let (value, _carry) = ShiftKind::Lsl.apply(1, 4, false);
/// assert_eq!(value, 16);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum ShiftKind {
    /// Logical shift left.
    Lsl = 0,
    /// Logical shift right.
    Lsr = 1,
    /// Arithmetic shift right (sign-extending).
    Asr = 2,
    /// Rotate right.
    Ror = 3,
}

impl ShiftKind {
    /// All four shift kinds in encoding order.
    pub const ALL: [ShiftKind; 4] =
        [ShiftKind::Lsl, ShiftKind::Lsr, ShiftKind::Asr, ShiftKind::Ror];

    /// The 2-bit encoding field.
    #[must_use]
    pub const fn field(self) -> u32 {
        self as u32
    }

    /// Decodes a 2-bit encoding field.
    #[must_use]
    pub const fn from_field(bits: u32) -> ShiftKind {
        match bits & 0b11 {
            0 => ShiftKind::Lsl,
            1 => ShiftKind::Lsr,
            2 => ShiftKind::Asr,
            _ => ShiftKind::Ror,
        }
    }

    /// The assembler mnemonic.
    #[must_use]
    pub const fn mnemonic(self) -> &'static str {
        match self {
            ShiftKind::Lsl => "lsl",
            ShiftKind::Lsr => "lsr",
            ShiftKind::Asr => "asr",
            ShiftKind::Ror => "ror",
        }
    }

    /// Parses an assembler mnemonic (case-insensitive).
    #[must_use]
    pub fn parse(s: &str) -> Option<ShiftKind> {
        match s.to_ascii_lowercase().as_str() {
            "lsl" => Some(ShiftKind::Lsl),
            "lsr" => Some(ShiftKind::Lsr),
            "asr" => Some(ShiftKind::Asr),
            "ror" => Some(ShiftKind::Ror),
            _ => None,
        }
    }

    /// Applies the shift to `value` by `amount` bit positions, returning
    /// `(result, carry_out)`.
    ///
    /// Semantics follow ARM's barrel shifter, with `carry_in` reported as
    /// the carry-out when the shift amount is zero (no shift happened):
    ///
    /// * amounts `1..=31` behave as the shift name suggests, carry-out is
    ///   the last bit shifted out;
    /// * `Lsl`/`Lsr` by 32 produce 0 with carry = bit 0 / bit 31;
    /// * `Asr` by ≥ 32 produces the sign fill with carry = sign bit;
    /// * `Lsl`/`Lsr` by > 32 produce 0 with carry clear;
    /// * `Ror` reduces the amount modulo 32 (amount ≡ 0 mod 32 with a
    ///   non-zero amount leaves the value intact, carry = bit 31).
    #[inline]
    #[must_use]
    pub fn apply(self, value: u32, amount: u32, carry_in: bool) -> (u32, bool) {
        if amount == 0 {
            return (value, carry_in);
        }
        match self {
            ShiftKind::Lsl => match amount {
                1..=31 => (value << amount, value >> (32 - amount) & 1 != 0),
                32 => (0, value & 1 != 0),
                _ => (0, false),
            },
            ShiftKind::Lsr => match amount {
                1..=31 => (value >> amount, value >> (amount - 1) & 1 != 0),
                32 => (0, value >> 31 != 0),
                _ => (0, false),
            },
            ShiftKind::Asr => match amount {
                1..=31 => {
                    (((value as i32) >> amount) as u32, (value as i32) >> (amount - 1) & 1 != 0)
                }
                _ => {
                    let fill = ((value as i32) >> 31) as u32;
                    (fill, fill & 1 != 0)
                }
            },
            ShiftKind::Ror => {
                let amt = amount % 32;
                if amt == 0 {
                    (value, value >> 31 != 0)
                } else {
                    let result = value.rotate_right(amt);
                    (result, result >> 31 != 0)
                }
            }
        }
    }
}

impl fmt::Display for ShiftKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.mnemonic())
    }
}

/// A shift applied to a register operand: either by a constant amount or by
/// the value of another register (its low 8 bits).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ShiftAmount {
    /// Shift by a constant `0..=31`.
    Imm(u8),
    /// Shift by the low byte of a register.
    Reg(crate::Reg),
}

impl fmt::Display for ShiftAmount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShiftAmount::Imm(n) => write!(f, "#{n}"),
            ShiftAmount::Reg(r) => write!(f, "{r}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_amount_passes_carry_through() {
        for kind in ShiftKind::ALL {
            assert_eq!(kind.apply(0xdead_beef, 0, true), (0xdead_beef, true));
            assert_eq!(kind.apply(0xdead_beef, 0, false), (0xdead_beef, false));
        }
    }

    #[test]
    fn lsl_semantics() {
        assert_eq!(ShiftKind::Lsl.apply(1, 4, false), (16, false));
        assert_eq!(ShiftKind::Lsl.apply(0x8000_0001, 1, false), (2, true));
        assert_eq!(ShiftKind::Lsl.apply(1, 32, false), (0, true));
        assert_eq!(ShiftKind::Lsl.apply(0xffff_ffff, 40, true), (0, false));
    }

    #[test]
    fn lsr_semantics() {
        assert_eq!(ShiftKind::Lsr.apply(16, 4, false), (1, false));
        assert_eq!(ShiftKind::Lsr.apply(3, 1, false), (1, true));
        assert_eq!(ShiftKind::Lsr.apply(0x8000_0000, 32, false), (0, true));
        assert_eq!(ShiftKind::Lsr.apply(0xffff_ffff, 33, true), (0, false));
    }

    #[test]
    fn asr_semantics() {
        assert_eq!(ShiftKind::Asr.apply(0x8000_0000, 4, false), (0xf800_0000, false));
        assert_eq!(ShiftKind::Asr.apply(0xffff_ffff, 40, false), (0xffff_ffff, true));
        assert_eq!(ShiftKind::Asr.apply(0x7fff_ffff, 40, true), (0, false));
        assert_eq!(ShiftKind::Asr.apply(5, 1, false), (2, true));
    }

    #[test]
    fn ror_semantics() {
        assert_eq!(ShiftKind::Ror.apply(1, 1, false), (0x8000_0000, true));
        assert_eq!(ShiftKind::Ror.apply(0xf0, 4, false), (0xf, false));
        // amount 32 leaves value intact, carry = bit 31
        assert_eq!(ShiftKind::Ror.apply(0x8000_0000, 32, false), (0x8000_0000, true));
        assert_eq!(ShiftKind::Ror.apply(0x1234_5678, 36, false), {
            let v = 0x1234_5678u32.rotate_right(4);
            (v, v >> 31 != 0)
        });
    }

    #[test]
    fn field_round_trip() {
        for kind in ShiftKind::ALL {
            assert_eq!(ShiftKind::from_field(kind.field()), kind);
            assert_eq!(ShiftKind::parse(kind.mnemonic()), Some(kind));
        }
        assert_eq!(ShiftKind::parse("rrx"), None);
    }
}
