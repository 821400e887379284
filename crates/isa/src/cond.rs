//! Condition codes and the architectural flags register.
//!
//! Every guest instruction carries a 4-bit condition field, evaluated
//! against the N/Z/C/V flags before the instruction executes — the classic
//! ARM predication model that the XScale implements.

use std::fmt;

/// The four architectural condition flags (a miniature CPSR).
///
/// # Examples
///
/// ```
/// use wp_isa::{Cond, Flags};
/// let mut flags = Flags::default();
/// flags.z = true;
/// assert!(Cond::Eq.holds(flags));
/// assert!(!Cond::Ne.holds(flags));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Flags {
    /// Negative: the result's sign bit.
    pub n: bool,
    /// Zero: the result was zero.
    pub z: bool,
    /// Carry: unsigned overflow out of bit 31 (or the shifter carry-out).
    pub c: bool,
    /// Overflow: signed overflow into bit 31.
    pub v: bool,
}

impl Flags {
    /// Flags from an arithmetic result plus explicit carry/overflow.
    #[inline]
    #[must_use]
    pub fn from_result(result: u32, carry: bool, overflow: bool) -> Flags {
        Flags { n: (result as i32) < 0, z: result == 0, c: carry, v: overflow }
    }

    /// Flags for a logical (non-arithmetic) result: C comes from the barrel
    /// shifter, V is preserved.
    #[inline]
    #[must_use]
    pub fn from_logical(result: u32, shifter_carry: bool, old: Flags) -> Flags {
        Flags { n: (result as i32) < 0, z: result == 0, c: shifter_carry, v: old.v }
    }
}

impl fmt::Debug for Flags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}{}",
            if self.n { 'N' } else { 'n' },
            if self.z { 'Z' } else { 'z' },
            if self.c { 'C' } else { 'c' },
            if self.v { 'V' } else { 'v' },
        )
    }
}

impl fmt::Display for Flags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A condition code, attached to every instruction.
///
/// `Al` (always) is the default and prints as an empty suffix.
///
/// # Examples
///
/// ```
/// use wp_isa::Cond;
/// assert_eq!(Cond::parse_suffix("eq"), Some(Cond::Eq));
/// assert_eq!(Cond::Ge.suffix(), "ge");
/// assert_eq!(Cond::Al.suffix(), "");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, Debug)]
#[repr(u8)]
pub enum Cond {
    /// Equal (Z set).
    Eq = 0,
    /// Not equal (Z clear).
    Ne = 1,
    /// Carry set / unsigned higher or same.
    Cs = 2,
    /// Carry clear / unsigned lower.
    Cc = 3,
    /// Minus / negative (N set).
    Mi = 4,
    /// Plus / positive or zero (N clear).
    Pl = 5,
    /// Overflow (V set).
    Vs = 6,
    /// No overflow (V clear).
    Vc = 7,
    /// Unsigned higher (C set and Z clear).
    Hi = 8,
    /// Unsigned lower or same (C clear or Z set).
    Ls = 9,
    /// Signed greater than or equal (N == V).
    Ge = 10,
    /// Signed less than (N != V).
    Lt = 11,
    /// Signed greater than (Z clear and N == V).
    Gt = 12,
    /// Signed less than or equal (Z set or N != V).
    Le = 13,
    /// Always — unconditional execution.
    #[default]
    Al = 14,
}

impl Cond {
    /// All fifteen condition codes in encoding order.
    pub const ALL: [Cond; 15] = [
        Cond::Eq,
        Cond::Ne,
        Cond::Cs,
        Cond::Cc,
        Cond::Mi,
        Cond::Pl,
        Cond::Vs,
        Cond::Vc,
        Cond::Hi,
        Cond::Ls,
        Cond::Ge,
        Cond::Lt,
        Cond::Gt,
        Cond::Le,
        Cond::Al,
    ];

    /// Evaluates the condition against the flags.
    #[inline]
    #[must_use]
    pub fn holds(self, f: Flags) -> bool {
        match self {
            Cond::Eq => f.z,
            Cond::Ne => !f.z,
            Cond::Cs => f.c,
            Cond::Cc => !f.c,
            Cond::Mi => f.n,
            Cond::Pl => !f.n,
            Cond::Vs => f.v,
            Cond::Vc => !f.v,
            Cond::Hi => f.c && !f.z,
            Cond::Ls => !f.c || f.z,
            Cond::Ge => f.n == f.v,
            Cond::Lt => f.n != f.v,
            Cond::Gt => !f.z && f.n == f.v,
            Cond::Le => f.z || f.n != f.v,
            Cond::Al => true,
        }
    }

    /// The logical inverse of this condition (`Al` is its own inverse for
    /// the purposes of layout analysis, where it means "no fall-through").
    #[must_use]
    pub fn inverse(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Cs => Cond::Cc,
            Cond::Cc => Cond::Cs,
            Cond::Mi => Cond::Pl,
            Cond::Pl => Cond::Mi,
            Cond::Vs => Cond::Vc,
            Cond::Vc => Cond::Vs,
            Cond::Hi => Cond::Ls,
            Cond::Ls => Cond::Hi,
            Cond::Ge => Cond::Lt,
            Cond::Lt => Cond::Ge,
            Cond::Gt => Cond::Le,
            Cond::Le => Cond::Gt,
            Cond::Al => Cond::Al,
        }
    }

    /// The 4-bit encoding field.
    #[must_use]
    pub const fn field(self) -> u32 {
        self as u32
    }

    /// Decodes a 4-bit encoding field. Field value 15 is reserved and
    /// decodes to `None`.
    #[must_use]
    pub fn from_field(bits: u32) -> Option<Cond> {
        Cond::ALL.get((bits & 0xf) as usize).copied()
    }

    /// The textual mnemonic suffix (empty for `Al`).
    #[must_use]
    pub const fn suffix(self) -> &'static str {
        match self {
            Cond::Eq => "eq",
            Cond::Ne => "ne",
            Cond::Cs => "cs",
            Cond::Cc => "cc",
            Cond::Mi => "mi",
            Cond::Pl => "pl",
            Cond::Vs => "vs",
            Cond::Vc => "vc",
            Cond::Hi => "hi",
            Cond::Ls => "ls",
            Cond::Ge => "ge",
            Cond::Lt => "lt",
            Cond::Gt => "gt",
            Cond::Le => "le",
            Cond::Al => "",
        }
    }

    /// Parses a mnemonic suffix. `hs`/`lo` are accepted as the usual
    /// aliases for `cs`/`cc`; the empty string and `al` parse to `Al`.
    #[must_use]
    pub fn parse_suffix(s: &str) -> Option<Cond> {
        match s {
            "" | "al" => Some(Cond::Al),
            "eq" => Some(Cond::Eq),
            "ne" => Some(Cond::Ne),
            "cs" | "hs" => Some(Cond::Cs),
            "cc" | "lo" => Some(Cond::Cc),
            "mi" => Some(Cond::Mi),
            "pl" => Some(Cond::Pl),
            "vs" => Some(Cond::Vs),
            "vc" => Some(Cond::Vc),
            "hi" => Some(Cond::Hi),
            "ls" => Some(Cond::Ls),
            "ge" => Some(Cond::Ge),
            "lt" => Some(Cond::Lt),
            "gt" => Some(Cond::Gt),
            "le" => Some(Cond::Le),
            _ => None,
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.suffix())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(n: bool, z: bool, c: bool, v: bool) -> Flags {
        Flags { n, z, c, v }
    }

    #[test]
    fn all_conditions_evaluate_correctly() {
        // Exhaustive over the 16 flag combinations.
        for bits in 0..16u8 {
            let f = flags(bits & 8 != 0, bits & 4 != 0, bits & 2 != 0, bits & 1 != 0);
            assert_eq!(Cond::Eq.holds(f), f.z);
            assert_eq!(Cond::Ne.holds(f), !f.z);
            assert_eq!(Cond::Hi.holds(f), f.c && !f.z);
            assert_eq!(Cond::Ls.holds(f), !f.c || f.z);
            assert_eq!(Cond::Ge.holds(f), f.n == f.v);
            assert_eq!(Cond::Lt.holds(f), f.n != f.v);
            assert_eq!(Cond::Gt.holds(f), !f.z && f.n == f.v);
            assert_eq!(Cond::Le.holds(f), f.z || f.n != f.v);
            assert!(Cond::Al.holds(f));
        }
    }

    #[test]
    fn inverse_is_involutive_and_complementary() {
        for cond in Cond::ALL {
            assert_eq!(cond.inverse().inverse(), cond);
            if cond == Cond::Al {
                continue;
            }
            for bits in 0..16u8 {
                let f = flags(bits & 8 != 0, bits & 4 != 0, bits & 2 != 0, bits & 1 != 0);
                assert_ne!(
                    cond.holds(f),
                    cond.inverse().holds(f),
                    "{cond:?} vs {:?} at {f}",
                    cond.inverse()
                );
            }
        }
    }

    #[test]
    fn field_round_trip() {
        for cond in Cond::ALL {
            assert_eq!(Cond::from_field(cond.field()), Some(cond));
        }
        assert_eq!(Cond::from_field(15), None);
    }

    #[test]
    fn suffix_round_trip() {
        for cond in Cond::ALL {
            assert_eq!(Cond::parse_suffix(cond.suffix()), Some(cond));
        }
        assert_eq!(Cond::parse_suffix("hs"), Some(Cond::Cs));
        assert_eq!(Cond::parse_suffix("lo"), Some(Cond::Cc));
        assert_eq!(Cond::parse_suffix("xx"), None);
    }

    #[test]
    fn flags_from_result() {
        let f = Flags::from_result(0, true, false);
        assert!(f.z && f.c && !f.n && !f.v);
        let f = Flags::from_result(0x8000_0000, false, true);
        assert!(f.n && f.v && !f.z);
    }

    #[test]
    fn flags_from_logical_preserves_v() {
        let old = flags(false, false, false, true);
        let f = Flags::from_logical(5, true, old);
        assert!(f.c && f.v && !f.z && !f.n);
    }

    #[test]
    fn flags_display() {
        assert_eq!(flags(true, false, true, false).to_string(), "NzCv");
    }
}
