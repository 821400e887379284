//! The timing simulator: an XScale-class, single-issue, in-order core
//! with a scoreboard (out-of-order completion, in-order issue), a
//! branch target buffer and the `wp-mem` memory hierarchy.
//!
//! The model follows XTREM's level of abstraction: architectural
//! execution is exact; timing is modelled per instruction as
//! fetch stalls + scoreboard stalls + unit latency + memory stalls +
//! branch penalties. Way-placement's only timing effect — the
//! way-hint misprediction cycle — flows in through the I-cache model.

use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};

use wp_isa::{Image, Insn, Reg};
use wp_mem::{
    DCacheStats, DataAccess, DataSide, DetectionStats, FaultStats, FetchScheme, FetchSide,
    FetchStats, MemoryConfig, TlbStats, WriteBuffer,
};
use wp_trace::{FetchCounters, IntervalSample, NullSink, TraceSink};

use crate::degrade::{DegradationController, DegradationPolicy};
use crate::exec::{step, AccessBuffer, Control, ExecError, InsnClass, Step};
use crate::machine::Machine;

/// Guest system-call numbers.
pub mod syscall {
    /// Terminate; `r0` is the exit code.
    pub const EXIT: u32 = 0;
    /// Write the low byte of `r0` to the output stream.
    pub const PUTC: u32 = 1;
    /// Mix `r0` into the architectural checksum (the workloads'
    /// result-verification channel).
    pub const REPORT: u32 = 2;
}

/// Simulator configuration.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SimConfig {
    /// The memory hierarchy.
    pub mem: MemoryConfig,
    /// Abort after this many instructions (guards runaway guests).
    pub max_instructions: u64,
    /// Collect per-instruction execution counts (profiling runs).
    pub collect_profile: bool,
    /// Branch target buffer entries (direct-mapped); 0 disables it.
    pub btb_entries: u32,
    /// Pipeline refill penalty for a mispredicted/unbuffered taken
    /// branch (the XScale's ~4-cycle front end).
    pub branch_penalty: u32,
    /// Extra result latency of a load (load-use delay).
    pub load_latency: u32,
    /// Extra result latency of a multiply.
    pub mul_latency: u32,
    /// Wall-clock watchdog: abort with [`SimError::Timeout`] once the
    /// run has been executing this long (`None` disables it). Checked
    /// every few thousand instructions, so overshoot is bounded.
    pub time_limit: Option<Duration>,
    /// Graceful scheme degradation: when set (and the memory config
    /// arms detection), a [`DegradationController`] samples the
    /// windowed detected-fault rate and walks the fetch scheme down
    /// to less speculative rungs under sustained faults.
    pub degradation: Option<DegradationPolicy>,
}

impl SimConfig {
    /// A configuration around a memory hierarchy, with Table-1-style
    /// core parameters.
    #[must_use]
    pub fn new(mem: MemoryConfig) -> SimConfig {
        SimConfig {
            mem,
            max_instructions: 2_000_000_000,
            collect_profile: false,
            btb_entries: 128,
            branch_penalty: 4,
            load_latency: 2,
            mul_latency: 2,
            time_limit: None,
            degradation: None,
        }
    }

    /// Enables per-instruction profiling.
    #[must_use]
    pub fn with_profile(mut self) -> SimConfig {
        self.collect_profile = true;
        self
    }

    /// Arms the wall-clock watchdog.
    #[must_use]
    pub fn with_time_limit(mut self, limit: Duration) -> SimConfig {
        self.time_limit = Some(limit);
        self
    }

    /// Arms graceful scheme degradation (and, implicitly, the fetch
    /// core's fault-detection checks it feeds on).
    #[must_use]
    pub fn with_degradation(mut self, policy: DegradationPolicy) -> SimConfig {
        self.degradation = Some(policy);
        self.mem.detection = true;
        self
    }
}

/// Errors a simulation can end with.
#[derive(Clone, Debug)]
pub enum SimError {
    /// The guest executed an architecture violation.
    Exec(ExecError),
    /// The instruction budget ran out.
    InstructionLimit(u64),
    /// The guest invoked an unknown system call.
    UnknownSyscall {
        /// The `swi` immediate.
        number: u32,
        /// Where.
        addr: u32,
    },
    /// Fetch left the text section.
    FetchOutOfText {
        /// The bad PC.
        pc: u32,
    },
    /// The wall-clock watchdog fired: the run exceeded its time limit.
    Timeout {
        /// The configured limit.
        limit: Duration,
    },
    /// A [`simulate_lanes`] group whose lane disagrees with lane 0 on a
    /// parameter every lane shares (core timing, budget, watchdog,
    /// profiling, data side).
    LaneMismatch {
        /// Index of the first disagreeing lane.
        lane: usize,
    },
}

impl SimError {
    /// Whether the error is *transient* — caused by host-side
    /// conditions (a loaded machine tripping the watchdog) rather than
    /// the guest or the model, so retrying can succeed. Architectural
    /// violations and budget overruns are deterministic and permanent.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        matches!(self, SimError::Timeout { .. })
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Exec(e) => e.fmt(f),
            SimError::InstructionLimit(n) => write!(f, "instruction limit {n} exceeded"),
            SimError::UnknownSyscall { number, addr } => {
                write!(f, "unknown syscall {number} at {addr:#010x}")
            }
            SimError::FetchOutOfText { pc } => write!(f, "fetch out of text at {pc:#010x}"),
            SimError::Timeout { limit } => {
                write!(f, "wall-clock limit {limit:?} exceeded (watchdog)")
            }
            SimError::LaneMismatch { lane } => {
                write!(f, "lane {lane} disagrees with lane 0 on core or data-side parameters")
            }
        }
    }
}

impl Error for SimError {}

impl From<ExecError> for SimError {
    fn from(e: ExecError) -> SimError {
        SimError::Exec(e)
    }
}

/// Everything one run produced.
#[derive(Clone, PartialEq, Debug)]
pub struct RunResult {
    /// The guest's exit code (`r0` at `swi #EXIT`).
    pub exit_code: u32,
    /// Architectural checksum accumulated by `REPORT` syscalls.
    pub checksum: u64,
    /// Bytes the guest wrote with `PUTC`.
    pub output: Vec<u8>,
    /// Instructions committed.
    pub instructions: u64,
    /// Total cycles.
    pub cycles: u64,
    /// Fetch-side counters.
    pub fetch: FetchStats,
    /// Data-cache counters.
    pub dcache: DCacheStats,
    /// I-TLB counters.
    pub itlb: TlbStats,
    /// D-TLB counters.
    pub dtlb: TlbStats,
    /// Taken-branch mispredictions (BTB misses and wrong targets).
    pub branch_mispredicts: u64,
    /// Per-final-instruction execution counts, when profiling.
    pub insn_counts: Option<Vec<u64>>,
    /// Injected-fault counters (all zero on a fault-free run).
    pub faults: FaultStats,
    /// Detected-fault and recovery counters (all zero with detection
    /// off).
    pub detection: DetectionStats,
    /// Scheme demotions the degradation controller took.
    pub demotions: u64,
    /// Scheme promotions back up the ladder.
    pub promotions: u64,
    /// The fetch scheme the run ended on (differs from the configured
    /// scheme only when degradation demoted it).
    pub final_scheme: FetchScheme,
    /// Every ladder move the degradation controller took, in window
    /// order (empty with degradation off).
    pub transitions: Vec<crate::SchemeTransition>,
}

impl RunResult {
    /// Cycles per instruction.
    #[must_use]
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }
}

/// A simple direct-mapped branch target buffer.
#[derive(Clone, Debug)]
struct Btb {
    entries: Vec<Option<(u32, u32)>>,
    /// `entries.len() - 1` when the size is a power of two, so the
    /// index is a mask instead of a division.
    mask: Option<usize>,
}

impl Btb {
    fn new(entries: u32) -> Btb {
        let entries = entries.max(1) as usize;
        Btb { entries: vec![None; entries], mask: entries.is_power_of_two().then(|| entries - 1) }
    }

    #[inline]
    fn index(&self, pc: u32) -> usize {
        let word = pc as usize >> 2;
        match self.mask {
            Some(mask) => word & mask,
            None => word % self.entries.len(),
        }
    }

    fn predicts(&self, pc: u32, target: u32) -> bool {
        self.entries[self.index(pc)] == Some((pc, target))
    }

    fn learn(&mut self, pc: u32, target: u32) {
        let index = self.index(pc);
        self.entries[index] = Some((pc, target));
    }
}

/// Runs `image` to completion under `config`.
///
/// # Errors
///
/// Returns [`SimError`] if the guest faults, exceeds its instruction
/// budget, or invokes an unknown system call.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use wp_mem::{CacheGeometry, MemoryConfig};
/// use wp_sim::{simulate, SimConfig};
/// use wp_linker::{Layout, Linker, Profile};
///
/// let module = wp_isa::assemble(
///     "p",
///     "_start: mov r0, #7\n swi #2\n mov r0, #0\n swi #0",
/// )?;
/// let image = Linker::new().with_module(module)
///     .link(Layout::Natural, &Profile::empty())?.image;
/// let config = SimConfig::new(MemoryConfig::baseline(CacheGeometry::xscale_icache()));
/// let result = simulate(&image, &config)?;
/// assert_eq!(result.exit_code, 0);
/// assert_ne!(result.checksum, 0);
/// # Ok(())
/// # }
/// ```
pub fn simulate(image: &Image, config: &SimConfig) -> Result<RunResult, SimError> {
    // `NullSink` sees no fetch and samples no interval, both known at
    // compile time: the traced branches fold away and a clean lane
    // takes the per-line fetch path.
    simulate_traced(image, config, &mut NullSink)
}

/// Runs `image` to completion under `config`, streaming telemetry into
/// `sink`.
///
/// Per fetch, the sink receives a [`wp_trace::FetchEvent`] classifying
/// the access (way-placement, full search, same-line, link hit, hint
/// mispredict) stamped with the fetch-time cycle count. When
/// [`TraceSink::interval_cycles`] is `Some(n)`, the sink also receives
/// delta [`IntervalSample`]s roughly every `n` cycles, plus one final
/// partial interval at exit. The sink never changes architectural
/// execution, timing or the counters in the returned [`RunResult`]; a
/// sink that sees fetches or samples intervals only makes every fetch
/// go through the fetch core, where [`simulate`] leaves same-line
/// fetches of a clean machine out of it.
///
/// # Errors
///
/// Returns [`SimError`] exactly as [`simulate`] does.
pub fn simulate_traced<S: TraceSink>(
    image: &Image,
    config: &SimConfig,
    sink: &mut S,
) -> Result<RunResult, SimError> {
    let machine = Machine::boot(image);
    let mut lanes = [Lane::new(config)];
    let shared = execute(machine, image, config, &mut lanes, sink)?;
    Ok(lanes[0].result(&shared))
}

/// Runs `image` once and times it under every configuration of
/// `configs` in lock-step: one result per configuration, each equal,
/// field for field, to [`simulate`] under that configuration alone.
///
/// The paper's §4 argument is that the fetch scheme, its faults and
/// its degradation change timing and energy, never architecture. So
/// one architectural execution (machine state, text-bounds checks,
/// instruction budget, branch target buffer, syscalls) feeds every
/// lane, and so does the data side's address state (D-TLB, D-cache
/// array and every [`DCacheStats`] counter except `miss_stall_cycles`).
/// Each lane keeps what depends on its own cache or clock: a
/// [`FetchSide`], a degradation controller, the cycle count, the
/// scoreboard and a [`WriteBuffer`].
///
/// Each lane fetches per line where it can: a fetch from the line of
/// the lane's last fetch-core call is a one-cycle hit that the lane
/// only counts, and accounts in its [`FetchSide`] in one
/// [`FetchSide::fetch_repeats`] call before its next core fetch. A
/// lane with a fault injector, detection, degradation, or a scheme
/// that neither elides same-line fetches nor is the baseline fetches
/// every instruction through the fetch core.
///
/// An empty `configs` runs nothing and returns no results.
///
/// # Errors
///
/// [`SimError::LaneMismatch`] when a configuration differs from the
/// first in anything but the fetch side (`mem.icache`, `mem.itlb`,
/// `mem.wp_limit`, `mem.fault`, `mem.detection`) and `degradation`;
/// otherwise the error [`simulate`] would return, which is the same for
/// every lane.
pub fn simulate_lanes(image: &Image, configs: &[SimConfig]) -> Result<Vec<RunResult>, SimError> {
    let Some(first) = configs.first() else {
        return Ok(Vec::new());
    };
    if let Some(lane) = configs.iter().position(|config| !shares_core(first, config)) {
        return Err(SimError::LaneMismatch { lane });
    }
    let machine = Machine::boot(image);
    let mut lanes: Vec<Lane> = configs.iter().map(Lane::new).collect();
    let shared = execute(machine, image, first, &mut lanes, &mut NullSink)?;
    Ok(lanes.iter().map(|lane| lane.result(&shared)).collect())
}

/// Whether `config` agrees with `first` on everything lanes share:
/// every field except the fetch side and the degradation policy.
fn shares_core(first: &SimConfig, config: &SimConfig) -> bool {
    let with_first_fetch_side = SimConfig {
        mem: MemoryConfig {
            icache: first.mem.icache,
            itlb: first.mem.itlb,
            wp_limit: first.mem.wp_limit,
            fault: first.mem.fault,
            detection: first.mem.detection,
            ..config.mem
        },
        degradation: first.degradation,
        ..*config
    };
    with_first_fetch_side == *first
}

/// One timing lane: the state that depends on the lane's own fetch
/// side or clock.
#[derive(Debug)]
struct Lane {
    fetch: FetchSide,
    buffer: WriteBuffer,
    degrade: Option<DegradationController>,
    clock: Clock,
    /// Masks a pc to its line base in this lane's I-cache.
    line_mask: u32,
    /// The line of the lane's last core fetch while its fetches from
    /// that line may skip the fetch core ([`FetchSide::repeat_line`]).
    repeat: Option<u32>,
    /// Fetches from `repeat` not yet accounted in `fetch`.
    pending: u64,
    /// Calls into the fetch core.
    core_fetches: u64,
}

/// A lane's cycle count and scoreboard.
#[derive(Debug, Default)]
struct Clock {
    cycles: u64,
    /// Scoreboard: the cycle at which each register's value is ready.
    ready: [u64; 16],
    /// Upper bound on every scoreboard entry, maintained where slow
    /// results publish, so `retire` skips the scoreboard scan once the
    /// clock has passed it.
    ready_bound: u64,
}

/// What every lane of one execution shares.
#[derive(Debug)]
struct Shared {
    exit_code: u32,
    checksum: u64,
    output: Vec<u8>,
    instructions: u64,
    mispredicts: u64,
    insn_counts: Option<Vec<u64>>,
    data: DataSide,
}

impl Lane {
    fn new(config: &SimConfig) -> Lane {
        Lane {
            fetch: FetchSide::new(config.mem),
            buffer: WriteBuffer::new(&config.mem.dcache),
            degrade: config
                .degradation
                .map(|p| DegradationController::new(p, config.mem.icache.scheme)),
            clock: Clock::default(),
            line_mask: !(config.mem.icache.geometry.line_bytes() - 1),
            repeat: None,
            pending: 0,
            core_fetches: 0,
        }
    }

    /// Accounts the pending same-line fetches, the last of them at
    /// `last_pc`, in the fetch side.
    fn flush(&mut self, last_pc: u32) {
        if self.pending > 0 {
            self.fetch.fetch_repeats(last_pc, self.pending);
            self.pending = 0;
        }
    }

    fn result(&self, shared: &Shared) -> RunResult {
        let degrade = self.degrade.as_ref();
        RunResult {
            exit_code: shared.exit_code,
            checksum: shared.checksum,
            output: shared.output.clone(),
            instructions: shared.instructions,
            cycles: self.clock.cycles,
            fetch: *self.fetch.fetch_stats(),
            dcache: DCacheStats {
                miss_stall_cycles: self.buffer.stall_cycles(),
                ..shared.data.dcache_stats()
            },
            itlb: *self.fetch.itlb_stats(),
            dtlb: *shared.data.dtlb_stats(),
            branch_mispredicts: shared.mispredicts,
            insn_counts: shared.insn_counts.clone(),
            faults: self.fetch.fault_stats(),
            detection: self.fetch.detection_stats(),
            demotions: degrade.map_or(0, DegradationController::demotions),
            promotions: degrade.map_or(0, DegradationController::promotions),
            final_scheme: self.fetch.current_scheme(),
            transitions: degrade.map_or_else(Vec::new, |c| c.transitions().to_vec()),
        }
    }
}

/// The one simulation loop: executes `image` (booted as `machine`)
/// architecturally once and fans each instruction out to every lane.
/// `config` supplies the shared parameters (lane 0's configuration;
/// [`simulate_lanes`] has checked the others agree). The sink observes
/// lane 0.
///
/// A fetch from the line of a lane's last core fetch is a known
/// one-cycle hit (§4.2's same-line rule), so a lane without a
/// degradation controller whose fetch side allows it
/// ([`FetchSide::repeat_line`]) adds the cycle and counts the fetch as
/// pending instead of calling the fetch core; the count goes into its
/// [`FetchSide`] just before the lane's next core fetch and at exit. A
/// sink that sees each fetch or samples intervals puts every lane on
/// the per-fetch path.
fn execute<S: TraceSink, L: AsMut<[Lane]>>(
    mut machine: Machine,
    image: &Image,
    config: &SimConfig,
    lanes: &mut L,
    sink: &mut S,
) -> Result<Shared, SimError> {
    // Generic over the container so `simulate`'s one-lane array
    // compiles to a loop of known length one, as fast as a dedicated
    // single-lane loop.
    let lanes = lanes.as_mut();
    let mut data = DataSide::new(&config.mem);
    let mut btb = Btb::new(config.btb_entries);
    let mut insn_counts = config.collect_profile.then(|| vec![0u64; image.text.len()]);

    let text = &image.text;
    let text_base = Image::TEXT_BASE;
    let text_len = text.len() as u32;

    let mut instructions: u64 = 0;
    let mut checksum: u64 = 0;
    let mut reports: u64 = 0;
    let mut output = Vec::new();
    let mut mispredicts: u64 = 0;
    // The current instruction's data accesses, as `step` writes them,
    // and their address halves.
    let mut mem: AccessBuffer = [(0, false); 16];
    let mut accesses = [DataAccess::default(); 16];
    // Wall-clock watchdog, sampled every 16 K instructions so the
    // `Instant` syscall stays off the hot path.
    let watchdog = config.time_limit.map(|limit| (Instant::now(), limit));
    // Interval sampling: re-queried after each sample, because adaptive
    // sinks stretch their period as the series compacts.
    let mut sample_period = sink.interval_cycles();
    let mut sample_start: u64 = 0;
    let mut sample_snapshot = FetchStats::new();
    // The registers each text slot reads, for the scoreboard.
    let sources: Vec<u16> = text.iter().map(|&insn| source_mask(insn)).collect();
    let per_line = !sink.enabled() && sample_period.is_none();
    // The previous instruction's pc: the last pending fetch of a lane
    // that leaves its line on this instruction.
    let mut last_pc = 0;

    loop {
        if instructions >= config.max_instructions {
            return Err(SimError::InstructionLimit(config.max_instructions));
        }
        if instructions & 0x3FFF == 0 {
            if let Some((start, limit)) = watchdog {
                if start.elapsed() >= limit {
                    return Err(SimError::Timeout { limit });
                }
            }
        }
        let pc = machine.pc;
        let index = pc.wrapping_sub(text_base) / Insn::SIZE;
        if pc < text_base || index >= text_len || !pc.is_multiple_of(4) {
            return Err(SimError::FetchOutOfText { pc });
        }
        let insn = text[index as usize];

        // Fetch: I-TLB + I-cache (stalls include miss fills and
        // way-hint penalties), on every lane.
        for lane in lanes.iter_mut() {
            if lane.repeat == Some(pc & lane.line_mask) {
                lane.pending += 1;
                lane.clock.cycles += 1;
                continue;
            }
            lane.flush(last_pc);
            lane.core_fetches += 1;
            let fetch = if sink.enabled() {
                let (timing, mut event) = lane.fetch.fetch_traced(pc);
                event.cycle = lane.clock.cycles;
                sink.record_fetch(&event);
                timing
            } else {
                lane.fetch.fetch(pc)
            };
            lane.clock.cycles += u64::from(fetch.cycles);
            degrade_window(&mut lane.degrade, &mut lane.fetch);
            if per_line && lane.degrade.is_none() {
                lane.repeat = lane.fetch.repeat_line();
            }
        }
        last_pc = pc;

        if let (Some(period), Some(lane)) = (sample_period, lanes.first()) {
            let cycles = lane.clock.cycles;
            if cycles - sample_start >= period {
                let now = *lane.fetch.fetch_stats();
                sink.record_interval(IntervalSample {
                    start_cycle: sample_start,
                    end_cycle: cycles,
                    counters: FetchCounters::from(&now.delta(&sample_snapshot)),
                });
                sample_start = cycles;
                sample_snapshot = now;
                sample_period = sink.interval_cycles();
            }
        }

        if let Some(counts) = insn_counts.as_mut() {
            counts[index as usize] += 1;
        }

        // Execute architecturally, once for every lane.
        let outcome = step(&mut machine, insn, pc, &mut mem)?;
        instructions += 1;

        // The data side's address half and the branch prediction are
        // shared facts of the one execution; each lane then times them
        // against its own clock.
        let count = usize::from(outcome.accesses);
        let accesses = &mut accesses[..count];
        for (access, &(addr, write)) in accesses.iter_mut().zip(&mem[..count]) {
            *access = data.probe(addr, write);
        }
        let branch_penalty = match outcome.control {
            Control::Branch { taken: true, target } if !btb.predicts(pc, target) => {
                mispredicts += 1;
                btb.learn(pc, target);
                config.branch_penalty
            }
            _ => 0,
        };
        let insn_sources = sources[index as usize];
        for lane in lanes.iter_mut() {
            retire(
                &mut lane.clock,
                &mut lane.buffer,
                insn_sources,
                &outcome,
                accesses,
                branch_penalty,
                config,
            );
        }

        match outcome.control {
            Control::Next => machine.pc = pc.wrapping_add(4),
            Control::Branch { taken, target } => {
                machine.pc = if taken { target } else { pc.wrapping_add(4) };
            }
            Control::Syscall { number, arg } => {
                machine.pc = pc.wrapping_add(4);
                match number {
                    syscall::EXIT => {
                        for lane in lanes.iter_mut() {
                            lane.flush(pc);
                        }
                        if let (Some(_), Some(lane)) = (sample_period, lanes.first()) {
                            // Flush the final partial interval so the
                            // series sums to the aggregate counters.
                            let tail = lane.fetch.fetch_stats().delta(&sample_snapshot);
                            if tail.fetches > 0 {
                                sink.record_interval(IntervalSample {
                                    start_cycle: sample_start,
                                    end_cycle: lane.clock.cycles,
                                    counters: FetchCounters::from(&tail),
                                });
                            }
                        }
                        return Ok(Shared {
                            exit_code: arg,
                            checksum,
                            output,
                            instructions,
                            mispredicts,
                            insn_counts,
                            data,
                        });
                    }
                    syscall::PUTC => output.push(arg as u8),
                    syscall::REPORT => {
                        reports += 1;
                        checksum = mix(checksum ^ u64::from(arg).wrapping_add(reports));
                    }
                    _ => return Err(SimError::UnknownSyscall { number, addr: pc }),
                }
            }
        }
    }
}

/// The per-instruction timing rule, applied by each lane after its
/// fetch: scoreboard stall on the `sources` registers, issue cycles,
/// slow-result publish, data-side stalls (`accesses` are the shared
/// address halves, settled against the lane's own write buffer and
/// clock) and the branch penalty.
#[inline]
fn retire(
    clock: &mut Clock,
    buffer: &mut WriteBuffer,
    sources: u16,
    outcome: &Step,
    accesses: &[DataAccess],
    branch_penalty: u32,
    config: &SimConfig,
) {
    // The clock lives in a local for the whole rule: a lane's fields
    // stay in memory across the write-buffer calls, a local does not.
    let mut cycles = clock.cycles;

    // Scoreboard: stall issue until the sources are ready. The
    // model approximates "sources" as every register the decoder
    // could need — cheap and adequate at this abstraction level:
    // we track only *slow* results (loads, multiplies), which are
    // the XScale's visible interlocks. `ready_bound` caps every
    // entry, so a lane already past it cannot stall.
    if clock.ready_bound > cycles {
        let mut bits = sources;
        while bits != 0 {
            cycles = cycles.max(clock.ready[bits.trailing_zeros() as usize]);
            bits &= bits - 1;
        }
    }

    // Issue/execute cycle(s).
    let issue_cycles: u64 = match outcome.class {
        InsnClass::AluRegShift => 2,
        InsnClass::Block(n) => u64::from(n.max(1)),
        InsnClass::Mul => 1,
        _ => 1,
    };
    // The fetch cycle already accounted one cycle of progress for
    // this instruction; only extra issue cycles add on.
    cycles += issue_cycles - 1;

    // Slow results: published later than issue.
    if let Some(dest) = outcome.slow_dest {
        let latency = match outcome.class {
            InsnClass::Load => config.load_latency,
            InsnClass::Mul => config.mul_latency,
            _ => 0,
        };
        let ready = cycles + u64::from(latency);
        clock.ready[dest.index()] = ready;
        clock.ready_bound = clock.ready_bound.max(ready);
    }

    // Data memory: blocking cache; stalls add directly.
    for access in accesses {
        let stall = access.tlb_stall + buffer.settle(access.probe, cycles).stall_cycles;
        cycles += u64::from(stall);
    }

    // Taken-branch misprediction: the front end refills.
    clock.cycles = cycles + u64::from(branch_penalty);
}

/// Closes any degradation windows the fetch counter has passed and
/// applies the controller's scheme decision. The `next_boundary` guard
/// keeps this to one branch per fetch on the hot path.
#[inline]
fn degrade_window(degrade: &mut Option<DegradationController>, mem: &mut FetchSide) {
    if let Some(ctrl) = degrade.as_mut() {
        let fetches = mem.fetch_stats().fetches;
        if fetches >= ctrl.next_boundary() {
            let detected = mem.detection_stats().total_detected();
            if let Some(scheme) = ctrl.observe(fetches, detected) {
                mem.set_fetch_scheme(scheme);
            }
        }
    }
}

/// Computes the checksum a guest would accumulate by issuing exactly
/// these `REPORT` syscall values in order. Reference implementations of
/// the workloads use this to predict the architectural checksum.
///
/// # Examples
///
/// ```
/// let a = wp_sim::checksum_of([1, 2, 3]);
/// let b = wp_sim::checksum_of([3, 2, 1]);
/// assert_ne!(a, b, "order-sensitive");
/// ```
#[must_use]
pub fn checksum_of(reports: impl IntoIterator<Item = u32>) -> u64 {
    let mut checksum = 0u64;
    let mut count = 0u64;
    for value in reports {
        count += 1;
        checksum = mix(checksum ^ u64::from(value).wrapping_add(count));
    }
    checksum
}

/// A 64-bit finaliser (splitmix-style) so checksums are sensitive to
/// report order and value.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The registers `insn` reads, as a bit set (bit `r` for register `r`).
fn source_mask(insn: Insn) -> u16 {
    use wp_isa::{MemOffset, Op, Operand, ShiftAmount};
    let mut mask = 0u16;
    let mut use_reg = |r: Reg| mask |= 1 << r.index();
    match insn.op {
        Op::Alu { op, rn, op2, .. } => {
            if op.has_rn() {
                use_reg(rn);
            }
            if let Operand::Reg { rm, amount, .. } = op2 {
                use_reg(rm);
                if let ShiftAmount::Reg(rs) = amount {
                    use_reg(rs);
                }
            }
        }
        Op::Mul { op, ra, rm, rs, .. } => {
            use_reg(rm);
            use_reg(rs);
            if op == wp_isa::MulOp::Mla {
                use_reg(ra);
            }
        }
        Op::Mem { rd, addr, load, .. } => {
            use_reg(addr.base);
            if let MemOffset::Reg { rm, .. } = addr.offset {
                use_reg(rm);
            }
            if !load {
                use_reg(rd);
            }
        }
        Op::Push { list } => {
            for reg in list.iter() {
                use_reg(reg);
            }
        }
        Op::BranchReg { rm } => use_reg(rm),
        _ => {}
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_linker::{Layout, Linker, Profile};
    use wp_mem::CacheGeometry;

    fn link(src: &str) -> Image {
        let module = wp_isa::assemble("t", src).expect("asm");
        Linker::new()
            .with_module(module)
            .link(Layout::Natural, &Profile::empty())
            .expect("link")
            .image
    }

    fn config() -> SimConfig {
        SimConfig::new(MemoryConfig::baseline(CacheGeometry::new(2048, 4, 32)))
    }

    #[test]
    fn exit_code_and_output() {
        let image = link(
            "_start:
                mov r0, #'h'
                swi #1
                mov r0, #'i'
                swi #1
                mov r0, #3
                swi #0",
        );
        let result = simulate(&image, &config()).expect("run");
        assert_eq!(result.exit_code, 3);
        assert_eq!(result.output, b"hi");
        assert!(result.cycles >= result.instructions);
    }

    #[test]
    fn checksum_is_order_sensitive() {
        let ab = link("_start: mov r0, #1\nswi #2\nmov r0, #2\nswi #2\nswi #0");
        let ba = link("_start: mov r0, #2\nswi #2\nmov r0, #1\nswi #2\nswi #0");
        let ra = simulate(&ab, &config()).unwrap();
        let rb = simulate(&ba, &config()).unwrap();
        assert_ne!(ra.checksum, rb.checksum);
    }

    #[test]
    fn instruction_limit() {
        let image = link("_start: b _start");
        let mut cfg = config();
        cfg.max_instructions = 1000;
        let err = simulate(&image, &cfg).unwrap_err();
        assert!(matches!(err, SimError::InstructionLimit(1000)));
    }

    #[test]
    fn watchdog_timeout_fires() {
        let image = link("_start: b _start");
        let cfg = config().with_time_limit(Duration::ZERO);
        let err = simulate(&image, &cfg).unwrap_err();
        assert!(matches!(err, SimError::Timeout { .. }), "{err:?}");
        assert!(err.is_transient());
        assert!(!SimError::InstructionLimit(5).is_transient());
    }

    #[test]
    fn injected_hardware_faults_preserve_architecture() {
        // The §4 graceful-degradation claim at simulator level: a
        // heavily faulted machine reports the same checksum, exit code
        // and instruction count — only timing may differ.
        let image = link(
            "_start:
                mov r4, #200
                mov r0, #0
            .Ll: add r0, r0, r4
                subs r4, r4, #1
                bne .Ll
                swi #2
                mov r0, #0
                swi #0",
        );
        let clean = simulate(&image, &config()).expect("clean run");
        let geom = CacheGeometry::new(2048, 4, 32);
        let faulted_mem = MemoryConfig::way_placement(geom, 0x8000, 2048)
            .with_fault(wp_mem::FaultConfig::all(0xBAD5EED, 200_000));
        let faulted = simulate(&image, &SimConfig::new(faulted_mem)).expect("faulted run");
        assert!(faulted.faults.total() > 0, "{:?}", faulted.faults);
        assert_eq!(faulted.checksum, clean.checksum);
        assert_eq!(faulted.exit_code, clean.exit_code);
        assert_eq!(faulted.instructions, clean.instructions);
    }

    #[test]
    fn degradation_demotes_under_sustained_faults_and_preserves_architecture() {
        let image = link(
            "_start:
                mov r4, #2000
                mov r0, #0
            .Ll: add r0, r0, r4
                subs r4, r4, #1
                bne .Ll
                swi #2
                mov r0, #0
                swi #0",
        );
        let clean = simulate(&image, &config()).expect("clean run");
        let geom = CacheGeometry::new(2048, 4, 32);
        let faulted_mem = MemoryConfig::way_placement(geom, 0x8000, 2048)
            .with_fault(wp_mem::FaultConfig::all(0xDE6, 200_000));
        let policy =
            crate::DegradationPolicy { window_fetches: 256, demote_faults: 2, promote_windows: 4 };
        let cfg = SimConfig::new(faulted_mem).with_degradation(policy);
        let result = simulate(&image, &cfg).expect("degraded run");
        // At 20%/kind the fault rate saturates every window: the
        // controller must walk all the way down to the baseline.
        assert!(result.detection.total_detected() > 0, "{:?}", result.detection);
        assert!(result.demotions >= 2, "demotions: {}", result.demotions);
        assert_eq!(result.final_scheme, wp_mem::FetchScheme::Baseline);
        // Degradation is still §4-safe: architecture is untouched.
        assert_eq!(result.checksum, clean.checksum);
        assert_eq!(result.exit_code, clean.exit_code);
        assert_eq!(result.instructions, clean.instructions);
    }

    #[test]
    fn degradation_is_inert_on_a_clean_machine() {
        let image = link(
            "_start:
                mov r4, #2000
                mov r0, #0
            .Ll: add r0, r0, r4
                subs r4, r4, #1
                bne .Ll
                swi #2
                mov r0, #0
                swi #0",
        );
        let geom = CacheGeometry::new(2048, 4, 32);
        let mem = MemoryConfig::way_placement(geom, 0x8000, 2048);
        let plain = simulate(&image, &SimConfig::new(mem)).expect("plain");
        let policy = crate::DegradationPolicy::default();
        let armed = simulate(&image, &SimConfig::new(mem).with_degradation(policy)).expect("armed");
        assert_eq!(armed.cycles, plain.cycles, "observation must be free when clean");
        assert_eq!(armed.fetch, plain.fetch);
        assert_eq!(armed.demotions, 0);
        assert_eq!(armed.promotions, 0);
        assert_eq!(armed.final_scheme, wp_mem::FetchScheme::WayPlacement);
        assert_eq!(armed.detection.total_detected(), 0);
    }

    #[test]
    fn unknown_syscall() {
        let image = link("_start: swi #99");
        let err = simulate(&image, &config()).unwrap_err();
        assert!(matches!(err, SimError::UnknownSyscall { number: 99, .. }));
    }

    #[test]
    fn wild_jump_detected() {
        let image = link("_start: mov r0, #0\nbx r0");
        let err = simulate(&image, &config()).unwrap_err();
        assert!(matches!(err, SimError::FetchOutOfText { .. }));
    }

    #[test]
    fn btb_reduces_branch_penalty() {
        // A tight loop: the first iteration mispredicts, the rest hit
        // the BTB.
        let image = link(
            "_start:
                mov r4, #100
            .Ll: subs r4, r4, #1
                bne .Ll
                swi #0",
        );
        let result = simulate(&image, &config()).expect("run");
        assert!(result.branch_mispredicts <= 3, "{}", result.branch_mispredicts);
        // CPI should be near 1 for this loop once warm.
        assert!(result.cpi() < 2.0, "cpi {}", result.cpi());
    }

    #[test]
    fn load_use_stall_costs_cycles() {
        let dependent = link(
            "_start:
                ldr r1, =v
                mov r4, #200
            .Ll: ldr r0, [r1]
                add r0, r0, #1     ; immediately uses the load
                subs r4, r4, #1
                bne .Ll
                swi #0
            .data
            v: .word 5",
        );
        let independent = link(
            "_start:
                ldr r1, =v
                mov r4, #200
            .Ll: ldr r0, [r1]
                add r2, r2, #1     ; does not use the load
                subs r4, r4, #1
                bne .Ll
                swi #0
            .data
            v: .word 5",
        );
        let rd = simulate(&dependent, &config()).unwrap();
        let ri = simulate(&independent, &config()).unwrap();
        assert_eq!(rd.instructions, ri.instructions);
        assert!(rd.cycles > ri.cycles, "{} vs {}", rd.cycles, ri.cycles);
    }

    #[test]
    fn profile_counts_match_execution() {
        let image = link(
            "_start:
                mov r4, #10
            .Ll: subs r4, r4, #1
                bne .Ll
                swi #0",
        );
        let cfg = config().with_profile();
        let result = simulate(&image, &cfg).expect("run");
        let counts = result.insn_counts.expect("profile");
        assert_eq!(counts[0], 1, "prologue once");
        assert_eq!(counts[1], 10, "loop body ten times");
        assert_eq!(counts[2], 10);
        assert_eq!(counts.iter().sum::<u64>(), result.instructions);
    }

    #[test]
    fn register_shifts_cost_an_extra_issue_cycle() {
        // Two otherwise-identical loops; one shifts by register.
        let imm = link(
            "_start:
                mov r4, #300
            .Ll: mov r0, r0, lsl #1
                subs r4, r4, #1
                bne .Ll
                swi #0",
        );
        let reg = link(
            "_start:
                mov r4, #300
                mov r5, #1
            .Ll: mov r0, r0, lsl r5
                subs r4, r4, #1
                bne .Ll
                swi #0",
        );
        let ri = simulate(&imm, &config()).unwrap();
        let rr = simulate(&reg, &config()).unwrap();
        // ~one extra cycle per iteration.
        assert!(rr.cycles >= ri.cycles + 250, "{} vs {}", rr.cycles, ri.cycles);
    }

    #[test]
    fn block_transfers_cost_per_register() {
        let narrow = link(
            "_start:
                mov r4, #200
            .Ll: push {r5, lr}
                pop {r5, lr}
                subs r4, r4, #1
                bne .Ll
                swi #0",
        );
        let wide = link(
            "_start:
                mov r4, #200
            .Ll: push {r5, r6, r7, r8, r9, lr}
                pop {r5, r6, r7, r8, r9, lr}
                subs r4, r4, #1
                bne .Ll
                swi #0",
        );
        let rn = simulate(&narrow, &config()).unwrap();
        let rw = simulate(&wide, &config()).unwrap();
        assert!(rw.cycles > rn.cycles + 200 * 4, "{} vs {}", rw.cycles, rn.cycles);
    }

    #[test]
    fn predicated_false_instructions_still_cost_fetch() {
        // A loop of predicated-false adds costs the same fetches as a
        // loop of nops: predication squashes work, not fetch.
        let squashed = link(
            "_start:
                mov r4, #500
                cmp r4, #0      ; never equal inside the loop
            .Ll: addeq r0, r0, #1
                addeq r1, r1, #1
                subs r4, r4, #1
                bne .Ll
                swi #0",
        );
        let result = simulate(&squashed, &config()).unwrap();
        assert_eq!(result.fetch.fetches, result.instructions);
        assert_eq!(result.exit_code, 0);
    }

    #[test]
    fn traced_run_matches_untraced_and_reconciles() {
        let image = link(
            "_start:
                mov r4, #500
                mov r0, #0
            .Ll: add r0, r0, r4
                subs r4, r4, #1
                bne .Ll
                swi #2
                mov r0, #0
                swi #0",
        );
        let cfg = config();
        let plain = simulate(&image, &cfg).expect("untraced");
        let mut recorder =
            wp_trace::TraceRecorder::new().with_capacity(8192).with_interval_cycles(64);
        let traced = simulate_traced(&image, &cfg, &mut recorder).expect("traced");
        // Telemetry is an observer: identical architecture and timing.
        assert_eq!(traced.checksum, plain.checksum);
        assert_eq!(traced.cycles, plain.cycles);
        assert_eq!(traced.fetch, plain.fetch);
        // One event per fetch, and the interval series sums back to the
        // aggregate fetch counter.
        assert_eq!(recorder.events().len() as u64, plain.fetch.fetches);
        assert_eq!(recorder.dropped(), 0);
        let sampled: u64 = recorder.intervals().iter().map(|s| s.counters.fetches).sum();
        assert_eq!(sampled, plain.fetch.fetches, "intervals cover the whole run");
        let last = recorder.intervals().last().expect("samples exist");
        assert_eq!(last.end_cycle, plain.cycles, "final flush reaches exit");
    }

    /// A loop whose long straight-line block (crossing I-cache lines)
    /// sits between a load-use producer and the loop branch: 300 bytes
    /// of text, so a 256-byte cache evicts on every iteration.
    fn straight_line_loop() -> Image {
        let body: String =
            (0..64).map(|i| format!("                add r0, r0, #{}\n", i + 1)).collect();
        link(&format!(
            "_start:
                mov r4, #200
                ldr r5, =v
                mov r0, #0
            .Ll:
                ldr r1, [r5]
                add r0, r0, r1
{body}                subs r4, r4, #1
                bne .Ll
                swi #2
                mov r0, #0
                swi #0
            .data
            v: .word 3"
        ))
    }

    /// A way-placement machine with faults and a degradation window
    /// that is not a multiple of the line, so window boundaries land
    /// inside straight-line runs.
    fn armed_config(geom: CacheGeometry) -> SimConfig {
        let policy =
            crate::DegradationPolicy { window_fetches: 97, demote_faults: 1, promote_windows: 2 };
        SimConfig::new(
            MemoryConfig::way_placement(geom, Image::TEXT_BASE, 1024)
                .with_fault(wp_mem::FaultConfig::all(0xA4ED, 2_000)),
        )
        .with_degradation(policy)
    }

    /// Every scheme's clean machine on `geom`, with LRU replacement on
    /// the baseline and way-memoization.
    fn clean_configs(geom: CacheGeometry) -> Vec<SimConfig> {
        let lru = |mut mem: MemoryConfig| {
            mem.icache.replacement = wp_mem::ReplacementPolicy::Lru;
            mem
        };
        [
            MemoryConfig::baseline(geom),
            lru(MemoryConfig::baseline(geom)),
            MemoryConfig::way_placement(geom, Image::TEXT_BASE, 1024),
            MemoryConfig::way_memoization(geom),
            lru(MemoryConfig::way_memoization(geom)),
            MemoryConfig::way_prediction(geom),
        ]
        .into_iter()
        .map(SimConfig::new)
        .collect()
    }

    /// The per-fetch reference: a recorder sees every fetch, so every
    /// fetch goes through the fetch core.
    fn per_fetch(image: &Image, config: &SimConfig) -> RunResult {
        let mut recorder = wp_trace::TraceRecorder::new().with_capacity(1 << 16);
        simulate_traced(image, config, &mut recorder).expect("traced")
    }

    #[test]
    fn traced_and_untraced_runs_agree_under_every_scheme_and_degradation() {
        // A sink is an observer, so the traced run, which fetches
        // through the fetch core every time, must equal the untraced
        // one, which leaves same-line fetches out of it, field for
        // field, cycles and counters included: under every fetch
        // scheme, on 32- and 64-byte lines, with LRU replacement on a
        // cache too small for the loop, and armed.
        let image = straight_line_loop();
        let geom = CacheGeometry::new(2048, 4, 32);
        let mut configs = clean_configs(geom);
        configs.extend(clean_configs(CacheGeometry::new(256, 2, 64)));
        configs.push(armed_config(geom));
        for cfg in configs {
            let cfg = cfg.with_profile();
            let plain = simulate(&image, &cfg).expect("untraced");
            let icache = cfg.mem.icache;
            assert_eq!(plain, per_fetch(&image, &cfg), "{icache:?}");
            if icache.geometry.size_bytes() == 256 {
                assert!(plain.fetch.misses > 200, "{icache:?} misses {}", plain.fetch.misses);
            }
        }
        let armed = simulate(&image, &armed_config(geom)).expect("armed");
        assert!(armed.demotions > 0 && armed.promotions > 0, "{:?}", armed.transitions);
    }

    #[test]
    fn mixed_lane_groups_equal_their_per_fetch_runs() {
        // Per-line lanes beside lanes that must fetch every word: an
        // armed fault injector, detection alone, and degradation.
        let image = straight_line_loop();
        let geom = CacheGeometry::new(2048, 4, 32);
        let mut configs = clean_configs(CacheGeometry::new(256, 2, 64));
        configs.insert(2, armed_config(geom));
        configs.extend([
            SimConfig::new(
                MemoryConfig::way_placement(geom, Image::TEXT_BASE, 1024)
                    .with_fault(wp_mem::FaultConfig::all(0xF1A7, 3_000)),
            ),
            SimConfig::new(MemoryConfig::way_memoization(geom).with_detection()),
            SimConfig::new(MemoryConfig::baseline(geom)),
        ]);
        let lanes = simulate_lanes(&image, &configs).expect("lanes");
        for (lane, cfg) in lanes.iter().zip(&configs) {
            assert_eq!(lane, &per_fetch(&image, cfg), "{:?}", cfg.mem);
        }
        assert!(lanes[2].demotions > 0 && lanes[7].faults.total() > 0);
    }

    #[test]
    fn null_sink_runs_call_the_fetch_core_only_on_line_changes() {
        // Lane-level core-fetch counts: under a sink that sees no
        // fetch, a clean lane calls the fetch core once per line
        // change; a sink that sees fetches needs it once per
        // instruction.
        fn core_fetches<S: TraceSink>(image: &Image, config: &SimConfig, sink: &mut S) -> u64 {
            let mut lanes = [Lane::new(config)];
            execute(Machine::boot(image), image, config, &mut lanes, sink).expect("run");
            lanes[0].core_fetches
        }
        let image = straight_line_loop();
        for cfg in clean_configs(CacheGeometry::new(2048, 4, 32)) {
            let mut recorder = wp_trace::TraceRecorder::new().with_capacity(1 << 16);
            let traced = core_fetches(&image, &cfg, &mut recorder);
            let pcs: Vec<u32> = recorder.events().iter().map(|e| e.pc).collect();
            assert_eq!(recorder.dropped(), 0);
            assert_eq!(traced, pcs.len() as u64, "one core fetch per instruction");
            let line = |pc: &u32| pc / cfg.mem.icache.geometry.line_bytes();
            let changes = 1 + pcs.windows(2).filter(|w| line(&w[0]) != line(&w[1])).count();
            let untraced = core_fetches(&image, &cfg, &mut NullSink);
            assert_eq!(untraced, changes as u64, "{:?}", cfg.mem.icache);
            assert!(untraced < traced / 2);
        }
    }

    #[test]
    fn stats_are_populated() {
        let image = link(
            "_start:
                ldr r0, =v
                ldr r1, [r0]
                swi #0
            .data
            v: .word 1",
        );
        let result = simulate(&image, &config()).unwrap();
        assert!(result.fetch.fetches >= result.instructions);
        assert_eq!(result.dcache.reads, 1);
        assert!(result.itlb.lookups > 0);
        assert!(result.dtlb.lookups > 0);
    }
}
