//! Architectural ALU semantics shared by the functional and timing
//! simulators: carry/overflow-exact addition and the data-processing
//! result computation.

use crate::{AluOp, Flags};

/// `a + b + carry_in` with the ARM carry/overflow rules.
///
/// Returns `(result, carry_out, overflow)`.
///
/// # Examples
///
/// ```
/// use wp_isa::alu::add_with_carry;
/// let (r, c, v) = add_with_carry(u32::MAX, 1, false);
/// assert_eq!((r, c, v), (0, true, false));
/// let (r, c, v) = add_with_carry(0x7fff_ffff, 1, false);
/// assert_eq!((r, c, v), (0x8000_0000, false, true));
/// ```
#[inline]
#[must_use]
pub fn add_with_carry(a: u32, b: u32, carry_in: bool) -> (u32, bool, bool) {
    let unsigned = u64::from(a) + u64::from(b) + u64::from(carry_in);
    let signed = i64::from(a as i32) + i64::from(b as i32) + i64::from(carry_in);
    let result = unsigned as u32;
    let carry = unsigned > u64::from(u32::MAX);
    let overflow = signed != i64::from(result as i32);
    (result, carry, overflow)
}

/// The outcome of a data-processing operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AluOutcome {
    /// The 32-bit result (meaningless for compares, but still computed).
    pub result: u32,
    /// The flags the operation would write if its S bit is set.
    pub flags: Flags,
}

/// Computes a data-processing result given the first operand `rn_value`,
/// the shifter output `op2` with its carry-out `shifter_carry`, and the
/// current flags (consumed by `adc`/`sbc` and preserved into V for
/// logical operations).
#[inline]
#[must_use]
pub fn alu_compute(
    op: AluOp,
    rn_value: u32,
    op2: u32,
    shifter_carry: bool,
    flags: Flags,
) -> AluOutcome {
    let arith = |result: u32, carry: bool, overflow: bool| AluOutcome {
        result,
        flags: Flags::from_result(result, carry, overflow),
    };
    let logical = |result: u32| AluOutcome {
        result,
        flags: Flags::from_logical(result, shifter_carry, flags),
    };
    match op {
        AluOp::And | AluOp::Tst => logical(rn_value & op2),
        AluOp::Eor | AluOp::Teq => logical(rn_value ^ op2),
        AluOp::Orr => logical(rn_value | op2),
        AluOp::Bic => logical(rn_value & !op2),
        AluOp::Mov => logical(op2),
        AluOp::Mvn => logical(!op2),
        AluOp::Add | AluOp::Cmn => {
            let (r, c, v) = add_with_carry(rn_value, op2, false);
            arith(r, c, v)
        }
        AluOp::Adc => {
            let (r, c, v) = add_with_carry(rn_value, op2, flags.c);
            arith(r, c, v)
        }
        AluOp::Sub | AluOp::Cmp => {
            let (r, c, v) = add_with_carry(rn_value, !op2, true);
            arith(r, c, v)
        }
        AluOp::Sbc => {
            let (r, c, v) = add_with_carry(rn_value, !op2, flags.c);
            arith(r, c, v)
        }
        AluOp::Rsb => {
            let (r, c, v) = add_with_carry(op2, !rn_value, true);
            arith(r, c, v)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const F0: Flags = Flags { n: false, z: false, c: false, v: false };

    #[test]
    fn add_with_carry_cases() {
        assert_eq!(add_with_carry(2, 3, false), (5, false, false));
        assert_eq!(add_with_carry(u32::MAX, 0, true), (0, true, false));
        assert_eq!(add_with_carry(0x8000_0000, 0x8000_0000, false), (0, true, true));
        assert_eq!(add_with_carry(0x7fff_ffff, 0x7fff_ffff, false), (0xffff_fffe, false, true));
    }

    #[test]
    fn sub_via_complement() {
        // 5 - 3 = 2, no borrow => carry set (ARM convention).
        let out = alu_compute(AluOp::Sub, 5, 3, false, F0);
        assert_eq!(out.result, 2);
        assert!(out.flags.c);
        assert!(!out.flags.n && !out.flags.z && !out.flags.v);
        // 3 - 5 borrows => carry clear, negative.
        let out = alu_compute(AluOp::Sub, 3, 5, false, F0);
        assert_eq!(out.result, -2i32 as u32);
        assert!(!out.flags.c);
        assert!(out.flags.n);
    }

    #[test]
    fn cmp_matches_sub() {
        for (a, b) in [(0u32, 0u32), (5, 3), (3, 5), (u32::MAX, 1), (0x8000_0000, 1)] {
            assert_eq!(
                alu_compute(AluOp::Cmp, a, b, false, F0).flags,
                alu_compute(AluOp::Sub, a, b, false, F0).flags
            );
        }
    }

    #[test]
    fn rsb_reverses() {
        let out = alu_compute(AluOp::Rsb, 3, 10, false, F0);
        assert_eq!(out.result, 7);
    }

    #[test]
    fn adc_sbc_chain() {
        // 64-bit add: 0xffffffff_ffffffff + 1
        let lo = alu_compute(AluOp::Add, u32::MAX, 1, false, F0);
        assert_eq!(lo.result, 0);
        assert!(lo.flags.c);
        let hi = alu_compute(AluOp::Adc, u32::MAX, 0, false, lo.flags);
        assert_eq!(hi.result, 0);
        assert!(hi.flags.c);

        // 64-bit sub: 0x1_00000000 - 1 = 0x0_ffffffff
        let lo = alu_compute(AluOp::Sub, 0, 1, false, F0);
        assert_eq!(lo.result, u32::MAX);
        assert!(!lo.flags.c, "borrow clears carry");
        let hi = alu_compute(AluOp::Sbc, 1, 0, false, lo.flags);
        assert_eq!(hi.result, 0);
    }

    #[test]
    fn logical_ops_use_shifter_carry() {
        let out = alu_compute(AluOp::Mov, 0, 0, true, F0);
        assert!(out.flags.c, "shifter carry propagates");
        assert!(out.flags.z);
        let old = Flags { v: true, ..F0 };
        let out = alu_compute(AluOp::And, 0xff, 0x0f, false, old);
        assert_eq!(out.result, 0x0f);
        assert!(out.flags.v, "V preserved by logicals");
    }

    #[test]
    fn mvn_and_bic() {
        assert_eq!(alu_compute(AluOp::Mvn, 0, 0, false, F0).result, u32::MAX);
        assert_eq!(alu_compute(AluOp::Bic, 0xff, 0x0f, false, F0).result, 0xf0);
    }
}
