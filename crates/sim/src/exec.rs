//! Functional execution: one architectural step of the guest core.

use std::error::Error;
use std::fmt;

use wp_isa::alu::alu_compute;
use wp_isa::{AddrMode, Flags, Insn, MemOffset, MemWidth, MulOp, Op, Operand, Reg, ShiftAmount};

use crate::machine::{Machine, MemFault};

/// Errors the functional core can raise.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExecError {
    /// A data access faulted.
    Mem(MemFault),
    /// The program counter was used as a data operand (unsupported in
    /// this ISA; see `wp-isa` docs).
    PcOperand {
        /// Address of the offending instruction.
        addr: u32,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Mem(fault) => fault.fmt(f),
            ExecError::PcOperand { addr } => {
                write!(f, "pc used as data operand at {addr:#010x}")
            }
        }
    }
}

impl Error for ExecError {}

impl From<MemFault> for ExecError {
    fn from(fault: MemFault) -> ExecError {
        ExecError::Mem(fault)
    }
}

/// Instruction class, for issue latency modelling.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InsnClass {
    /// Simple ALU operation.
    Alu,
    /// ALU with a register-specified shift (extra issue cycle on ARM).
    AluRegShift,
    /// Multiply / multiply-accumulate (the MAC unit).
    Mul,
    /// Load.
    Load,
    /// Store.
    Store,
    /// Block transfer of `n` registers.
    Block(u8),
    /// Branch-class (b/bl/bx/swi).
    Branch,
    /// Nop or predicated-false instruction.
    Nop,
}

/// What one step did, for the timing model.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Step {
    /// The instruction's timing class.
    pub class: InsnClass,
    /// Control-flow outcome.
    pub control: Control,
    /// How many data accesses the step wrote, in program order, into
    /// the caller's access buffer (push and pop make several).
    pub accesses: u8,
    /// Destination register whose result has non-unit latency (loads,
    /// multiplies), if any.
    pub slow_dest: Option<Reg>,
}

/// The data accesses of one step as `(address, is_write)`: the
/// simulation loop owns one buffer and each [`step`] overwrites its
/// first [`Step::accesses`] entries.
pub(crate) type AccessBuffer = [(u32, bool); 16];

/// Control-flow outcome of a step.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Control {
    /// Fall through to `pc + 4`.
    Next,
    /// A branch, taken or not (not-taken conditional branches still
    /// matter to the BTB model).
    Branch {
        /// Whether it redirected fetch.
        taken: bool,
        /// The target when taken.
        target: u32,
    },
    /// A system call; the simulator interprets `number` and `arg`.
    Syscall {
        /// The `swi` immediate.
        number: u32,
        /// The guest's `r0`.
        arg: u32,
    },
}

impl Step {
    fn simple(class: InsnClass) -> Step {
        Step { class, control: Control::Next, accesses: 0, slow_dest: None }
    }

    fn branch(class: InsnClass, target: u32) -> Step {
        Step { control: Control::Branch { taken: true, target }, ..Step::simple(class) }
    }
}

#[inline]
fn reg_value(machine: &Machine, reg: Reg, addr: u32) -> Result<u32, ExecError> {
    if reg.is_pc() {
        return Err(ExecError::PcOperand { addr });
    }
    Ok(machine.reg(reg))
}

/// Evaluates a flexible second operand; returns `(value, shifter_carry)`.
#[inline]
fn operand2(machine: &Machine, op2: Operand, addr: u32) -> Result<(u32, bool), ExecError> {
    let flags = machine.flags;
    match op2 {
        Operand::Imm(value) => Ok((value, flags.c)),
        Operand::Reg { rm, kind, amount } => {
            let base = reg_value(machine, rm, addr)?;
            let amount = match amount {
                ShiftAmount::Imm(n) => u32::from(n),
                ShiftAmount::Reg(rs) => reg_value(machine, rs, addr)? & 0xff,
            };
            Ok(kind.apply(base, amount, flags.c))
        }
    }
}

/// Executes `insn` (already fetched from `addr`), updating the machine
/// and writing the instruction's data accesses into `mem`.
/// `machine.pc` is advanced or redirected by the caller based on the
/// returned [`Control`].
///
/// # Errors
///
/// Returns [`ExecError`] for data faults or architecture-violating
/// operand use.
#[inline]
pub(crate) fn step(
    machine: &mut Machine,
    insn: Insn,
    addr: u32,
    mem: &mut AccessBuffer,
) -> Result<Step, ExecError> {
    if !insn.cond.holds(machine.flags) {
        // Predicated false: fetched and decoded but architecturally a
        // bubble-free nop.
        return Ok(Step::simple(InsnClass::Nop));
    }
    match insn.op {
        Op::Nop => Ok(Step::simple(InsnClass::Nop)),
        Op::Alu { op, s, rd, rn, op2 } => {
            let rn_value = if op.has_rn() { reg_value(machine, rn, addr)? } else { 0 };
            let (op2_value, shifter_carry) = operand2(machine, op2, addr)?;
            let outcome = alu_compute(op, rn_value, op2_value, shifter_carry, machine.flags);
            if s || op.is_compare() {
                machine.flags = outcome.flags;
            }
            if op.has_rd() {
                if rd.is_pc() {
                    return Err(ExecError::PcOperand { addr });
                }
                machine.set_reg(rd, outcome.result);
            }
            let class = match op2 {
                Operand::Reg { amount: ShiftAmount::Reg(_), .. } => InsnClass::AluRegShift,
                _ => InsnClass::Alu,
            };
            Ok(Step::simple(class))
        }
        Op::Mul { op, s, rd, ra, rm, rs } => {
            let rm_value = reg_value(machine, rm, addr)?;
            let rs_value = reg_value(machine, rs, addr)?;
            if rd.is_pc() || ra.is_pc() {
                return Err(ExecError::PcOperand { addr });
            }
            let mut flags = machine.flags;
            match op {
                MulOp::Mul => {
                    let result = rm_value.wrapping_mul(rs_value);
                    machine.set_reg(rd, result);
                    flags.n = (result as i32) < 0;
                    flags.z = result == 0;
                }
                MulOp::Mla => {
                    let acc = reg_value(machine, ra, addr)?;
                    let result = rm_value.wrapping_mul(rs_value).wrapping_add(acc);
                    machine.set_reg(rd, result);
                    flags.n = (result as i32) < 0;
                    flags.z = result == 0;
                }
                MulOp::Umull => {
                    let result = u64::from(rm_value) * u64::from(rs_value);
                    machine.set_reg(rd, result as u32);
                    machine.set_reg(ra, (result >> 32) as u32);
                    flags.n = (result as i64) < 0;
                    flags.z = result == 0;
                }
                MulOp::Smull => {
                    let result = i64::from(rm_value as i32) * i64::from(rs_value as i32);
                    machine.set_reg(rd, result as u32);
                    machine.set_reg(ra, (result >> 32) as u32);
                    flags.n = result < 0;
                    flags.z = result == 0;
                }
            }
            if s {
                machine.flags = Flags { c: machine.flags.c, v: machine.flags.v, ..flags };
            }
            Ok(Step { slow_dest: Some(rd), ..Step::simple(InsnClass::Mul) })
        }
        Op::Mov16 { top, rd, imm } => {
            if rd.is_pc() {
                return Err(ExecError::PcOperand { addr });
            }
            let value = if top {
                (machine.reg(rd) & 0xffff) | (u32::from(imm) << 16)
            } else {
                u32::from(imm)
            };
            machine.set_reg(rd, value);
            Ok(Step::simple(InsnClass::Alu))
        }
        Op::Mem { load, width, signed, rd, addr: mem_addr } => {
            if rd.is_pc() {
                return Err(ExecError::PcOperand { addr });
            }
            let base = reg_value(machine, mem_addr.base, addr)?;
            let offset_value: i64 = match mem_addr.offset {
                MemOffset::Imm(v) => i64::from(v),
                MemOffset::Reg { rm, kind, amount, add } => {
                    let raw = reg_value(machine, rm, addr)?;
                    let (value, _) = kind.apply(raw, u32::from(amount), machine.flags.c);
                    if add {
                        i64::from(value)
                    } else {
                        -i64::from(value)
                    }
                }
            };
            let indexed = (i64::from(base) + offset_value) as u32;
            let ea = match mem_addr.mode {
                AddrMode::Offset | AddrMode::PreIndex => indexed,
                AddrMode::PostIndex => base,
            };
            if mem_addr.mode != AddrMode::Offset {
                if mem_addr.base.is_pc() {
                    return Err(ExecError::PcOperand { addr });
                }
                machine.set_reg(mem_addr.base, indexed);
            }
            mem[0] = (ea, !load);
            if load {
                let value = match (width, signed) {
                    (MemWidth::Word, _) => machine.read_word(ea)?,
                    (MemWidth::Byte, false) => u32::from(machine.read_byte(ea)?),
                    (MemWidth::Byte, true) => machine.read_byte(ea)? as i8 as i32 as u32,
                    (MemWidth::Half, false) => u32::from(machine.read_half(ea)?),
                    (MemWidth::Half, true) => machine.read_half(ea)? as i16 as i32 as u32,
                };
                machine.set_reg(rd, value);
                Ok(Step { accesses: 1, slow_dest: Some(rd), ..Step::simple(InsnClass::Load) })
            } else {
                let value = machine.reg(rd);
                match width {
                    MemWidth::Word => machine.write_word(ea, value)?,
                    MemWidth::Byte => machine.write_byte(ea, value as u8)?,
                    MemWidth::Half => machine.write_half(ea, value as u16)?,
                }
                Ok(Step { accesses: 1, ..Step::simple(InsnClass::Store) })
            }
        }
        Op::Push { list } => {
            let count = list.len() as u32;
            let new_sp = machine.reg(Reg::SP).wrapping_sub(4 * count);
            for (i, reg) in list.iter().enumerate() {
                let slot = new_sp.wrapping_add(4 * i as u32);
                machine.write_word(slot, machine.reg(reg))?;
                mem[i] = (slot, true);
            }
            machine.set_reg(Reg::SP, new_sp);
            Ok(Step { accesses: count as u8, ..Step::simple(InsnClass::Block(count as u8)) })
        }
        Op::Pop { list } => {
            let count = list.len() as u8;
            let sp = machine.reg(Reg::SP);
            let mut target = None;
            for (i, reg) in list.iter().enumerate() {
                let slot = sp.wrapping_add(4 * i as u32);
                let value = machine.read_word(slot)?;
                mem[i] = (slot, false);
                if reg.is_pc() {
                    target = Some(value);
                } else {
                    machine.set_reg(reg, value);
                }
            }
            machine.set_reg(Reg::SP, sp.wrapping_add(4 * u32::from(count)));
            let step = match target {
                Some(target) => Step::branch(InsnClass::Branch, target),
                None => Step::simple(InsnClass::Block(count)),
            };
            Ok(Step { accesses: count, ..step })
        }
        Op::Branch { link, offset } => {
            let target = addr.wrapping_add(4).wrapping_add((offset as u32) << 2);
            if link {
                machine.set_reg(Reg::LR, addr.wrapping_add(4));
            }
            Ok(Step::branch(InsnClass::Branch, target))
        }
        Op::BranchReg { rm } => {
            let target = reg_value(machine, rm, addr)? & !3;
            Ok(Step::branch(InsnClass::Branch, target))
        }
        Op::Swi { imm } => Ok(Step {
            control: Control::Syscall { number: imm, arg: machine.reg(Reg::R0) },
            ..Step::simple(InsnClass::Branch)
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_isa::{assemble, Image};
    use wp_linker::{Layout, Linker, Profile};

    fn machine_for(src: &str) -> (Machine, Image) {
        let module = assemble("t", src).expect("asm");
        let out = Linker::new()
            .with_module(module)
            .link(Layout::Natural, &Profile::empty())
            .expect("link");
        (Machine::boot(&out.image), out.image)
    }

    fn run_straight(machine: &mut Machine, image: &Image, count: usize) {
        for _ in 0..count {
            let idx = image.text_index(machine.pc).expect("in text");
            let insn = image.text[idx];
            let step = step(machine, insn, machine.pc, &mut [(0, false); 16]).expect("step");
            match step.control {
                Control::Next => machine.pc += 4,
                Control::Branch { taken: true, target } => machine.pc = target,
                Control::Branch { .. } => machine.pc += 4,
                Control::Syscall { .. } => break,
            }
        }
    }

    #[test]
    fn arithmetic_and_flags() {
        let (mut m, image) = machine_for(
            "_start:
                mov r0, #10
                subs r1, r0, #10
                moveq r2, #1
                movne r2, #2
                swi #0",
        );
        run_straight(&mut m, &image, 10);
        assert_eq!(m.reg(Reg::R1), 0);
        assert_eq!(m.reg(Reg::R2), 1, "eq path taken");
        assert!(m.flags.z);
    }

    #[test]
    fn loop_counts() {
        let (mut m, image) = machine_for(
            "_start:
                mov r0, #0
                mov r1, #7
            .Ll: add r0, r0, #3
                subs r1, r1, #1
                bne .Ll
                swi #0",
        );
        run_straight(&mut m, &image, 100);
        assert_eq!(m.reg(Reg::R0), 21);
    }

    #[test]
    fn memory_addressing_modes() {
        let (mut m, image) = machine_for(
            "_start:
                ldr r0, =buf
                mov r1, #0x11
                str r1, [r0]
                str r1, [r0, #4]!
                mov r2, #0x22
                str r2, [r0], #4
                ldr r3, [r0, #-8]
                ldrb r4, [r0, #-8]
                swi #0
            .data
            buf: .space 32",
        );
        run_straight(&mut m, &image, 20);
        let buf = image.symbol("buf").unwrap();
        assert_eq!(m.read_word(buf).unwrap(), 0x11);
        assert_eq!(m.read_word(buf + 4).unwrap(), 0x22, "pre-index + store");
        assert_eq!(m.reg(Reg::R0), buf + 8, "post-index writeback");
        assert_eq!(m.reg(Reg::R3), 0x11);
        assert_eq!(m.reg(Reg::R4), 0x11);
    }

    #[test]
    fn signed_loads() {
        let (mut m, image) = machine_for(
            "_start:
                ldr r0, =buf
                mvn r1, #0          ; 0xffffffff
                strb r1, [r0]
                strh r1, [r0, #2]
                ldrsb r2, [r0]
                ldrb r3, [r0]
                ldrsh r4, [r0, #2]
                swi #0
            .data
            buf: .space 8",
        );
        run_straight(&mut m, &image, 20);
        assert_eq!(m.reg(Reg::R2), 0xffff_ffff, "sign-extended byte");
        assert_eq!(m.reg(Reg::R3), 0xff);
        assert_eq!(m.reg(Reg::R4), 0xffff_ffff, "sign-extended half");
    }

    #[test]
    fn multiply_family() {
        let (mut m, image) = machine_for(
            "_start:
                mov r0, #100
                mov r1, #200
                mul r2, r0, r1
                mla r3, r0, r1, r0
                mvn r4, #0
                umull r5, r6, r4, r4
                smull r7, r8, r4, r4
                swi #0",
        );
        run_straight(&mut m, &image, 20);
        assert_eq!(m.reg(Reg::R2), 20_000);
        assert_eq!(m.reg(Reg::R3), 20_100);
        // 0xffffffff^2 = 0xfffffffe_00000001 unsigned
        assert_eq!(m.reg(Reg::R5), 1);
        assert_eq!(m.reg(Reg::R6), 0xffff_fffe);
        // (-1)^2 = 1 signed
        assert_eq!(m.reg(Reg::R7), 1);
        assert_eq!(m.reg(Reg::R8), 0);
    }

    #[test]
    fn calls_and_stack() {
        let (mut m, image) = machine_for(
            "_start:
                mov r0, #5
                bl double
                mov r4, r0
                bl double
                swi #0
            double:
                push {r5, lr}
                mov r5, r0
                add r0, r5, r5
                pop {r5, pc}",
        );
        run_straight(&mut m, &image, 50);
        assert_eq!(m.reg(Reg::R4), 10);
        assert_eq!(m.reg(Reg::R0), 20);
        assert_eq!(m.reg(Reg::SP), Image::STACK_TOP, "stack balanced");
    }

    #[test]
    fn barrel_shifter_operands() {
        let (mut m, image) = machine_for(
            "_start:
                mov r0, #1
                mov r1, r0, lsl #8
                mov r2, #3
                mov r3, r1, lsr r2
                add r4, r1, r1, asr #4
                swi #0",
        );
        run_straight(&mut m, &image, 20);
        assert_eq!(m.reg(Reg::R1), 256);
        assert_eq!(m.reg(Reg::R3), 32);
        assert_eq!(m.reg(Reg::R4), 256 + 16);
    }

    #[test]
    fn pc_operand_is_rejected() {
        let (mut m, _image) = machine_for("_start: swi #0");
        let bad = Insn::always(Op::Alu {
            op: wp_isa::AluOp::Add,
            s: false,
            rd: Reg::R0,
            rn: Reg::PC,
            op2: Operand::Imm(0),
        });
        let err = step(&mut m, bad, 0x8000, &mut [(0, false); 16]).unwrap_err();
        assert!(matches!(err, ExecError::PcOperand { addr: 0x8000 }));
    }

    #[test]
    fn syscall_surfaces_number_and_arg() {
        let (mut m, image) = machine_for("_start: mov r0, #42\nswi #2");
        run_straight(&mut m, &image, 1);
        let idx = image.text_index(m.pc).unwrap();
        let pc = m.pc;
        let s = step(&mut m, image.text[idx], pc, &mut [(0, false); 16]).unwrap();
        assert_eq!(s.control, Control::Syscall { number: 2, arg: 42 });
    }
}
