//! Seeded executor golden: a few hundred small guests built directly
//! from `Insn` values, each run through `simulate` and a two-lane
//! `simulate_lanes` under branch-target buffers of 128, 100 and 1
//! entries, folded into one fingerprint.
//!
//! The guests cover every `Op` form and `Cond`: the program counter in
//! each operand position, register shifts by 0, 31, 32, 33 and 255,
//! push and pop of one and of fifteen registers (`pop {pc}` among
//! them), pre- and post-index writeback, and byte, half and word
//! accesses at the top of guest memory and at unaligned addresses.
//! Generated branches and returns go only forward (a `bx` through a
//! random register mostly leaves the text), and the harness wraps each
//! body in a loop counted down in a register the body never writes,
//! so guests terminate (a 20,000-instruction budget bounds the rest)
//! and their branches meet the BTB more than once. A guest that
//! survives reports every register and its flags.
//!
//! Each outcome folds in as the typed error with its payload, or as
//! the exit code, checksum, instruction and cycle counts,
//! `DCacheStats`, D-TLB counters and branch mispredicts. A change to
//! what the executor computes, the order it checks operands in or the
//! faults it reports changes the fingerprint; regenerate it with
//! `WP_PRINT_GOLDEN=1` only for an intended change.

use std::collections::BTreeMap;

use wp_core::wp_isa::{
    AddrMode, Address, AluOp, Cond, Image, Insn, MemOffset, MemWidth, MulOp, Op, Operand, Reg,
    RegList, ShiftAmount, ShiftKind,
};
use wp_core::wp_mem::rng::SplitMix64;
use wp_core::wp_mem::{CacheGeometry, MemoryConfig};
use wp_core::wp_sim::{simulate, simulate_lanes, ExecError, RunResult, SimConfig, SimError};

/// The loop counter: generated code reads it but never writes it.
const COUNTER: Reg = Reg::IP;

/// One past the last byte of guest memory.
const MEMORY_TOP: u32 = wp_core::wp_sim::MEMORY_BYTES as u32;

/// Register values worth meeting: shift amounts (a register shift uses
/// the low byte, so 0x1ff shifts by 255 and 0x100 by 0), addresses at
/// the top of memory and past it, unaligned ones, and sign edges.
const EDGES: [u32; 24] = [
    0,
    1,
    31,
    32,
    33,
    255,
    0x100,
    0x1ff,
    MEMORY_TOP - 4,
    MEMORY_TOP - 3,
    MEMORY_TOP - 2,
    MEMORY_TOP - 1,
    MEMORY_TOP,
    MEMORY_TOP + 1,
    MEMORY_TOP + 2,
    MEMORY_TOP + 3,
    MEMORY_TOP - 0x1fe,
    0x7fff_ffff,
    0x8000_0000,
    0xffff_fffc,
    0xffff_ffff,
    Image::DATA_BASE + 1,
    Image::DATA_BASE + 2,
    Image::STACK_TOP - 3,
];

/// A guest under construction: a prologue that loads registers, a
/// counted loop around a body, and an epilogue that reports.
struct Guest {
    text: Vec<Insn>,
    /// Forward transfers patched once the loop's end is known, as
    /// `(slot, transfer)`: a `b`/`bl` at `slot` (then `transfer ==
    /// slot`), or a `movw`/`movt` pair at `slot` loading the target of
    /// the `bx` or `pop {pc}` at `transfer`.
    forward: Vec<(usize, usize)>,
}

fn mov16(rd: Reg, value: u32) -> [Insn; 2] {
    [
        Insn::always(Op::Mov16 { top: false, rd, imm: value as u16 }),
        Insn::always(Op::Mov16 { top: true, rd, imm: (value >> 16) as u16 }),
    ]
}

fn alu(op: AluOp, s: bool, rd: Reg, rn: Reg, op2: Operand) -> Op {
    Op::Alu { op, s, rd, rn, op2 }
}

fn mov(rd: Reg, op2: Operand) -> Insn {
    Insn::always(alu(AluOp::Mov, false, rd, Reg::R0, op2))
}

fn swi(imm: u32) -> Insn {
    Insn::always(Op::Swi { imm })
}

fn list(regs: &[Reg]) -> RegList {
    let mut list = RegList::new();
    for &reg in regs {
        list.insert(reg);
    }
    list
}

/// Random choices over the instruction set.
struct Gen {
    rng: SplitMix64,
}

impl Gen {
    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.rng.index(items.len())]
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.rng.below(one_in) == 0
    }

    fn cond(&mut self) -> Cond {
        if self.rng.flip() {
            Cond::Al
        } else {
            self.pick(&Cond::ALL)
        }
    }

    /// A register the instruction reads: now and then the pc.
    fn src(&mut self) -> Reg {
        if self.chance(48) {
            Reg::PC
        } else {
            Reg::new(self.rng.below(15) as u8)
        }
    }

    /// A register the instruction writes: never the loop counter, now
    /// and then the pc.
    fn dst(&mut self) -> Reg {
        if self.chance(48) {
            return Reg::PC;
        }
        loop {
            let reg = Reg::new(self.rng.below(15) as u8);
            if reg != COUNTER {
                return reg;
            }
        }
    }

    fn value(&mut self) -> u32 {
        match self.rng.below(8) {
            0..=2 => self.pick(&EDGES),
            3 => self.rng.next_u32(),
            4 => self.rng.below(64) as u32,
            // Valid data and stack addresses, some unaligned.
            5 | 6 => Image::DATA_BASE + self.rng.below(256) as u32,
            _ => Image::STACK_TOP - self.rng.below(256) as u32,
        }
    }

    fn shift(&mut self) -> ShiftKind {
        self.pick(&[ShiftKind::Lsl, ShiftKind::Lsr, ShiftKind::Asr, ShiftKind::Ror])
    }

    fn operand2(&mut self) -> Operand {
        match self.rng.below(3) {
            0 => Operand::Imm(if self.rng.flip() {
                self.pick(&[0, 1, 31, 32, 33, 255, Operand::MAX_IMM])
            } else {
                self.rng.below(u64::from(Operand::MAX_IMM) + 1) as u32
            }),
            1 => {
                let any = self.rng.below(32) as u8;
                Operand::Reg {
                    rm: self.src(),
                    kind: self.shift(),
                    amount: ShiftAmount::Imm(self.pick(&[0, 1, 31, any])),
                }
            }
            _ => Operand::Reg {
                rm: self.src(),
                kind: self.shift(),
                amount: ShiftAmount::Reg(self.src()),
            },
        }
    }

    fn mode(&mut self) -> AddrMode {
        self.pick(&[AddrMode::Offset, AddrMode::PreIndex, AddrMode::PostIndex])
    }

    fn mem(&mut self) -> Op {
        let load = self.rng.flip();
        let mode = self.mode();
        let base = if mode == AddrMode::Offset { self.src() } else { self.dst() };
        let offset = if self.rng.flip() {
            MemOffset::Imm(self.pick(&[0, 1, 2, 3, -1, -2, -3, 4, -4, 511, -511]))
        } else {
            MemOffset::Reg {
                rm: self.src(),
                kind: self.shift(),
                amount: self.rng.below(8) as u8,
                add: self.rng.flip(),
            }
        };
        Op::Mem {
            load,
            width: self.pick(&[MemWidth::Word, MemWidth::Byte, MemWidth::Half]),
            signed: self.rng.flip(),
            rd: if load { self.dst() } else { self.src() },
            addr: Address { base, offset, mode },
        }
    }

    /// A register list of one, of fifteen, or of random size; `pop`
    /// lists leave out the loop counter.
    fn reg_list(&mut self, pop: bool) -> RegList {
        let mask = match self.rng.below(4) {
            0 => 1u16 << self.rng.below(16),
            1 => !(1u16 << if pop { COUNTER.index() as u64 } else { self.rng.below(16) }),
            _ => (self.rng.next_u32() as u16) | 1,
        };
        let mask = if pop { mask & !(1 << COUNTER.index()) } else { mask };
        RegList::from_mask(if mask == 0 { 1 } else { mask })
    }

    /// Appends one random instruction (or a short idiom) to the body.
    fn body_insn(&mut self, guest: &mut Guest) {
        let cond = self.cond();
        let op = match self.rng.below(16) {
            0..=2 => alu(
                self.pick(&AluOp::ALL),
                self.rng.flip(),
                self.dst(),
                self.src(),
                self.operand2(),
            ),
            3 => Op::Mul {
                op: self.pick(&[MulOp::Mul, MulOp::Mla, MulOp::Umull, MulOp::Smull]),
                s: self.rng.flip(),
                rd: self.dst(),
                ra: self.dst(),
                rm: self.src(),
                rs: self.src(),
            },
            4 => {
                Op::Mov16 { top: self.rng.flip(), rd: self.dst(), imm: self.rng.next_u32() as u16 }
            }
            5..=7 => self.mem(),
            8 => Op::Push { list: self.reg_list(false) },
            9 => Op::Pop { list: self.reg_list(true) },
            10 => {
                guest.forward.push((guest.text.len(), guest.text.len()));
                Op::Branch { link: self.rng.flip(), offset: 0 }
            }
            11 => {
                // A forward register branch or return: `bx rX` or
                // `push {rX}; pop {pc}` after loading the target.
                let reg = self.dst();
                let slot = guest.text.len();
                guest.text.extend(mov16(reg, 0));
                let op = if self.rng.flip() {
                    Op::BranchReg { rm: reg }
                } else {
                    guest.text.push(Insn::new(cond, Op::Push { list: list(&[reg]) }));
                    Op::Pop { list: list(&[Reg::PC]) }
                };
                guest.forward.push((slot, guest.text.len()));
                op
            }
            12 => Op::BranchReg { rm: self.src() },
            13 => Op::Swi { imm: self.pick(&[0, 1, 1, 2, 2, 2, 3, 99]) },
            14 => Op::Nop,
            _ => alu(AluOp::Cmp, true, Reg::R0, self.src(), self.operand2()),
        };
        guest.text.push(Insn::new(cond, op));
    }
}

impl Guest {
    /// A prologue that loads `values` (register, value) and sets the
    /// flags from `r0 - r1`, then the counter and the loop head.
    fn new(values: &[(Reg, u32)], iterations: u32) -> Guest {
        let mut text = Vec::new();
        for &(reg, value) in values {
            text.extend(mov16(reg, value));
        }
        text.push(Insn::always(alu(AluOp::Cmp, true, Reg::R0, Reg::R0, Operand::reg(Reg::R1))));
        text.push(mov(COUNTER, Operand::Imm(iterations)));
        Guest { text, forward: Vec::new() }
    }

    /// Closes the loop that starts at `head`, patches every forward
    /// transfer to a body slot after it (the loop's decrement at the
    /// latest), and appends the report epilogue and the exit.
    fn finish(mut self, head: usize, exit_code: u32, rng: &mut SplitMix64) -> Image {
        let tail = self.text.len();
        self.text
            .push(Insn::always(alu(AluOp::Sub, true, COUNTER, COUNTER, Operand::Imm(1))));
        let back = head as i32 - (self.text.len() as i32 + 1);
        self.text.push(Insn::new(Cond::Ne, Op::Branch { link: false, offset: back }));
        for &(slot, transfer) in &self.forward {
            let target = transfer + 1 + rng.index(tail - transfer);
            match self.text[slot].op {
                Op::Branch { link, .. } => {
                    let offset = (target - transfer - 1) as i32;
                    self.text[slot].op = Op::Branch { link, offset };
                }
                Op::Mov16 { rd, .. } => {
                    let [low, high] = mov16(rd, Image::TEXT_BASE + 4 * target as u32);
                    self.text[slot] = low;
                    self.text[slot + 1] = high;
                }
                _ => unreachable!("forward slots hold their placeholder"),
            }
        }
        // Report r0, then r1..r14 through r0, then the four flags.
        self.text.push(swi(2));
        for index in 1..15 {
            self.text.extend([mov(Reg::R0, Operand::reg(Reg::new(index))), swi(2)]);
        }
        self.text.push(mov(Reg::R0, Operand::Imm(0)));
        for (bit, cond) in [Cond::Eq, Cond::Cs, Cond::Mi, Cond::Vs].into_iter().enumerate() {
            let op = alu(AluOp::Orr, false, Reg::R0, Reg::R0, Operand::Imm(1 << bit));
            self.text.push(Insn::new(cond, op));
        }
        self.text.extend([swi(2), mov(Reg::R0, Operand::Imm(exit_code)), swi(0)]);
        let data = (0..64).map(|_| rng.next_u32() as u8).collect();
        Image {
            text: self.text,
            data,
            bss_size: 64,
            entry: Image::TEXT_BASE,
            symbols: BTreeMap::new(),
        }
    }
}

/// A random guest: random register values (the stack pointer now and
/// then), a body of 4-24 random instructions, 1-6 iterations.
fn random_guest(gen: &mut Gen) -> Image {
    let mut values = Vec::new();
    for index in 0..15u8 {
        let reg = Reg::new(index);
        if reg == COUNTER || (reg == Reg::SP && !gen.chance(6)) {
            continue;
        }
        values.push((reg, gen.value()));
    }
    let iterations = 1 + gen.rng.below(6) as u32;
    let mut guest = Guest::new(&values, iterations);
    let head = guest.text.len();
    for _ in 0..gen.rng.range_u64(4, 24) {
        gen.body_insn(&mut guest);
    }
    let exit_code = gen.rng.below(256) as u32;
    guest.finish(head, exit_code, &mut gen.rng)
}

/// A guest whose body is exactly `body`, run `iterations` times after
/// loading `values`.
fn directed_guest(values: &[(Reg, u32)], body: &[Op], iterations: u32) -> Image {
    let mut guest = Guest::new(values, iterations);
    let head = guest.text.len();
    guest.text.extend(body.iter().map(|&op| Insn::always(op)));
    guest.finish(head, 7, &mut SplitMix64::new(0xd1ec7))
}

/// Guests that pin each checked operand position, each writeback mode,
/// the fault address of unaligned word accesses past the top of
/// memory, and branch aliasing in a BTB whose size is not a power of
/// two.
fn directed_guests() -> Vec<Image> {
    let (r1, r2, r3, pc) = (Reg::R1, Reg::R2, Reg::R3, Reg::PC);
    let data = Image::DATA_BASE + 8;
    let values = [(r1, 5), (r2, data), (r3, 33)];
    let load = |rd, base, offset, mode| Op::Mem {
        load: true,
        width: MemWidth::Word,
        signed: false,
        rd,
        addr: Address { base, offset: MemOffset::Imm(offset), mode },
    };
    let mul = |op, rd, ra, rm, rs| Op::Mul { op, s: false, rd, ra, rm, rs };
    let shifted = |rm, rs| Operand::Reg { rm, kind: ShiftKind::Lsl, amount: ShiftAmount::Reg(rs) };
    let mut bodies: Vec<Vec<Op>> = vec![
        // The pc in each checked operand position.
        vec![alu(AluOp::Add, false, r1, pc, Operand::Imm(1))],
        vec![alu(AluOp::Add, false, r1, r2, Operand::reg(pc))],
        vec![alu(AluOp::Add, false, r1, r2, shifted(r3, pc))],
        vec![alu(AluOp::Add, true, pc, r2, Operand::Imm(1))],
        vec![alu(AluOp::Mov, false, r1, pc, Operand::Imm(1))],
        vec![alu(AluOp::Cmp, true, pc, r2, Operand::Imm(1))],
        vec![mul(MulOp::Mul, r1, r2, pc, r3)],
        vec![mul(MulOp::Mul, r1, r2, r3, pc)],
        vec![mul(MulOp::Mul, pc, r2, r3, r3)],
        vec![mul(MulOp::Mul, r1, pc, r3, r3)],
        vec![mul(MulOp::Mla, r1, pc, r3, r3)],
        vec![mul(MulOp::Umull, r1, pc, r3, r3)],
        vec![Op::Mov16 { top: true, rd: pc, imm: 1 }],
        vec![load(pc, r2, 0, AddrMode::Offset)],
        vec![load(r1, pc, 0, AddrMode::Offset)],
        vec![load(r1, pc, 4, AddrMode::PostIndex)],
        vec![Op::Mem {
            load: false,
            width: MemWidth::Byte,
            signed: false,
            rd: pc,
            addr: Address::base_only(r2),
        }],
        vec![Op::Mem {
            load: true,
            width: MemWidth::Half,
            signed: true,
            rd: r1,
            addr: Address {
                base: r2,
                offset: MemOffset::Reg { rm: pc, kind: ShiftKind::Lsl, amount: 1, add: false },
                mode: AddrMode::PreIndex,
            },
        }],
        vec![Op::BranchReg { rm: pc }],
        // Writeback modes, and a push/pop round trip including the pc
        // slot, which reads as the register file's r15.
        vec![load(r1, r2, 4, AddrMode::PreIndex), load(r3, r2, -8, AddrMode::PostIndex)],
        vec![load(r1, r2, -4, AddrMode::PostIndex), load(r3, r2, 4, AddrMode::Offset)],
        vec![
            Op::Push { list: RegList::from_mask(0xffff) },
            Op::Pop { list: RegList::from_mask(!(1 << COUNTER.index()) & 0x7fff) },
            Op::Pop { list: list(&[r1]) },
        ],
        // Register shifts by 0, 31, 32, 33 and 255 of every kind.
        [0u32, 31, 32, 33, 0x1ff]
            .into_iter()
            .flat_map(|amount| {
                [ShiftKind::Lsl, ShiftKind::Lsr, ShiftKind::Asr, ShiftKind::Ror]
                    .into_iter()
                    .flat_map(move |kind| {
                        [
                            alu(AluOp::Mov, false, r3, r3, Operand::Imm(amount & 0x7ff)),
                            alu(
                                AluOp::Eor,
                                true,
                                r1,
                                r1,
                                Operand::Reg { rm: r2, kind, amount: ShiftAmount::Reg(r3) },
                            ),
                        ]
                    })
            })
            .collect(),
        // Taken branches at word offsets 0 and 4 of the loop: they
        // share a BTB entry under a mask of 99 but not modulo 100.
        vec![
            Op::Branch { link: false, offset: 0 },
            Op::Nop,
            Op::Nop,
            Op::Nop,
            Op::Branch { link: false, offset: 0 },
        ],
    ];
    // Every width, loaded and stored, at and past the top of memory.
    for width in [MemWidth::Word, MemWidth::Half, MemWidth::Byte] {
        for address in [MEMORY_TOP - 4, MEMORY_TOP - 1, MEMORY_TOP + 1, MEMORY_TOP + 3] {
            for is_load in [true, false] {
                bodies.push(vec![
                    Op::Mov16 { top: false, rd: r2, imm: address as u16 },
                    Op::Mov16 { top: true, rd: r2, imm: (address >> 16) as u16 },
                    Op::Mem {
                        load: is_load,
                        width,
                        signed: true,
                        rd: r1,
                        addr: Address::base_only(r2),
                    },
                ]);
            }
        }
    }
    // `pop {pc}` to a forward target, and `push`/`pop` of one register.
    let mut returns = Guest::new(&values, 1);
    let head = returns.text.len();
    returns.forward.push((head, head + 3));
    returns.text.extend(mov16(r3, 0));
    returns.text.push(Insn::always(Op::Push { list: list(&[r3]) }));
    returns.text.push(Insn::always(Op::Pop { list: list(&[pc]) }));
    returns.text.push(Insn::always(Op::Push { list: list(&[r1]) }));
    returns.text.push(Insn::always(Op::Pop { list: list(&[r2]) }));
    let mut guests: Vec<Image> =
        bodies.iter().map(|body| directed_guest(&values, body, 8)).collect();
    guests.push(returns.finish(head, 3, &mut SplitMix64::new(0x9e7)));
    guests
}

fn fold(acc: u64, values: &[u64]) -> u64 {
    values.iter().fold(acc, |acc, &v| (acc ^ v).wrapping_mul(0x0000_0100_0000_01b3))
}

/// The typed error with its payload.
fn error_words(error: &SimError) -> Vec<u64> {
    match *error {
        SimError::Exec(ExecError::Mem(fault)) => vec![1, fault.addr.into(), fault.write.into()],
        SimError::Exec(ExecError::PcOperand { addr }) => vec![2, addr.into()],
        SimError::Exec(ExecError::WildJump { target }) => vec![3, target.into()],
        SimError::InstructionLimit(limit) => vec![4, limit],
        SimError::UnknownSyscall { number, addr } => vec![5, number.into(), addr.into()],
        SimError::FetchOutOfText { pc } => vec![6, pc.into()],
        SimError::Timeout { .. } => vec![7],
        SimError::LaneMismatch { lane } => vec![8, lane as u64],
    }
}

/// What one lane's run adds to the fingerprint.
fn run_words(run: &RunResult) -> Vec<u64> {
    let d = &run.dcache;
    vec![
        run.exit_code.into(),
        run.checksum,
        run.output.len() as u64,
        run.instructions,
        run.cycles,
        d.reads,
        d.writes,
        d.hits,
        d.misses,
        d.tag_comparisons,
        d.data_accesses,
        d.line_fills,
        d.writebacks,
        d.miss_stall_cycles,
        run.dtlb.lookups,
        run.dtlb.misses,
        run.dtlb.miss_stall_cycles,
        run.branch_mispredicts,
    ]
}

/// The two lanes every guest runs under: a baseline cache and a small
/// way-placement one, with a small data cache so guests miss and write
/// back.
fn lane_configs(btb_entries: u32) -> [SimConfig; 2] {
    let small = |mut mem: MemoryConfig| {
        mem.dcache.geometry = CacheGeometry::new(256, 2, 32);
        let mut config = SimConfig::new(mem);
        config.btb_entries = btb_entries;
        config.max_instructions = 20_000;
        config
    };
    [
        small(MemoryConfig::baseline(CacheGeometry::new(1024, 4, 32))),
        small(MemoryConfig::way_placement(CacheGeometry::new(512, 2, 16), Image::TEXT_BASE, 1024)),
    ]
}

#[test]
fn executor_outcomes_match_the_golden_fingerprint() {
    let mut gen = Gen { rng: SplitMix64::new(0xe8ec_0701) };
    let mut guests = directed_guests();
    guests.extend((0..240).map(|_| random_guest(&mut gen)));

    let mut print = 0xcbf2_9ce4_8422_2325u64;
    let mut outcomes: BTreeMap<&str, usize> = BTreeMap::new();
    for image in &guests {
        for btb_entries in [128, 100, 1] {
            let configs = lane_configs(btb_entries);
            let alone = simulate(image, &configs[0]);
            match simulate_lanes(image, &configs) {
                Ok(lanes) => {
                    assert_eq!(alone.as_ref().ok(), Some(&lanes[0]), "{image:?}");
                    *outcomes.entry("exit").or_default() += 1;
                    for lane in &lanes {
                        print = fold(print, &run_words(lane));
                    }
                }
                Err(error) => {
                    let alone = alone.expect_err("lane 0 fails as the lone run does");
                    assert_eq!(format!("{alone:?}"), format!("{error:?}"));
                    let words = error_words(&error);
                    let kind =
                        ["", "mem", "pc", "wild", "limit", "syscall", "text", "timeout", "lane"];
                    *outcomes.entry(kind[words[0] as usize]).or_default() += 1;
                    print = fold(print, &words);
                }
            }
        }
    }
    if wp_core::env::print_golden() {
        println!("    executor: {print:#018x} {outcomes:?}");
    }
    // The mix keeps every kind of ending in play.
    let total: usize = outcomes.values().sum();
    for kind in ["exit", "mem", "pc", "text", "syscall"] {
        assert!(outcomes.get(kind).copied().unwrap_or(0) * 40 >= total, "{outcomes:?}");
    }
    assert_eq!(
        print, 0x85d4_98b8_8c74_c3e5,
        "executor fingerprint drifted (run with WP_PRINT_GOLDEN=1 to regenerate)"
    );
}
