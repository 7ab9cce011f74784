//! The functional workloads: `c2c-pow2-64` and `r2c-smooth-96`, plus the
//! 32³ × 8-rank functional mirror of `analytic-brick-768`.
//!
//! The simulated ranks are the program's own threads (mpisim runs one per
//! rank). When the host has a CPU for every rank, each rank thread pins
//! itself to its own CPU, as an MPI launcher binds ranks to cores; this
//! benchmark's only other thread-level machinery is a host barrier that
//! starts every rank's step together, so a step's time is the slowest
//! rank's time for that step.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::Instant;

use distfft::exec::{bind, execute, BoundPlan, ExecCtx};
use distfft::plan::{FftOptions, FftPlan};
use distfft::real3d::Real3dPlan;
use fftkern::{Direction, C64};
use mpisim::comm::{Comm, Rank, World, WorldOpts};
use simgrid::MachineSpec;

use crate::spans::{SpanId, SpanLog};
use crate::stats::{closed_loop, median, percentile};
use crate::{input, layers, Args, Outcome, Workload};

/// Round-trip tolerance of the c2c step (relative max error).
pub const ROUND_TRIP_TOL: f64 = 1e-10;
/// Tolerance of the c2c forward output against the serial reference
/// (relative max error).
pub const REFERENCE_TOL: f64 = 1e-10;
/// Tolerance of the Poisson solution against the serial solver (relative
/// L2 error).
pub const POISSON_TOL: f64 = 1e-9;
/// Warm-up steps before timing (the paper's protocol).
pub const WARMUPS: usize = 2;

/// Which distributed transform a functional step runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Complex forward, then `Scale::Full` backward.
    C2c,
    /// Poisson step: r2c forward, Green's multiply, c2r inverse.
    R2c,
}

/// A functional configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Global extents.
    pub n: [usize; 3],
    /// Simulated ranks (one host thread each).
    pub ranks: usize,
    /// Simulated machine.
    pub machine: MachineSpec,
    /// Transform kind.
    pub kind: Kind,
}

impl Config {
    /// The functional configuration a workload measures its functional
    /// layers on: the workload itself for `c2c-pow2-64` and
    /// `r2c-smooth-96`, the 32³ × 8-rank Summit mirror for
    /// `analytic-brick-768`.
    pub fn of(w: Workload) -> Config {
        match w {
            Workload::C2cPow2_64 => Config {
                n: [64; 3],
                ranks: 2,
                machine: MachineSpec::testbox(2),
                kind: Kind::C2c,
            },
            Workload::R2cSmooth96 => Config {
                n: [96; 3],
                ranks: 2,
                machine: MachineSpec::testbox(2),
                kind: Kind::R2c,
            },
            Workload::AnalyticBrick768 => Config {
                n: [32; 3],
                ranks: 8,
                machine: MachineSpec::summit(),
                kind: Kind::C2c,
            },
        }
    }
}

/// A built plan of either kind.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // a handful of plans per run
pub enum Plan {
    /// Complex plan.
    C2c(FftPlan),
    /// Real plan (two inner complex plans).
    R2c(Real3dPlan),
}

impl Plan {
    /// Builds the plan with default options (pencils, brick I/O,
    /// AllToAllV).
    pub fn build(cfg: &Config) -> Result<Plan, String> {
        let opts = FftOptions::default();
        match cfg.kind {
            Kind::C2c => FftPlan::try_build(cfg.n, cfg.ranks, opts).map(Plan::C2c),
            Kind::R2c => Real3dPlan::try_build(cfg.n, cfg.ranks, opts).map(Plan::R2c),
        }
        .map_err(|e| format!("plan build failed: {e}"))
    }

    /// The complex plans a step executes, in forward order.
    pub fn inner(&self) -> Vec<&FftPlan> {
        match self {
            Plan::C2c(p) => vec![p],
            Plan::R2c(p) => vec![&p.plan_a, &p.plan_c],
        }
    }

    fn span_name(&self) -> &'static str {
        match self {
            Plan::C2c(_) => "distfft.plan.try_build",
            Plan::R2c(_) => "distfft.real3d.try_build",
        }
    }
}

/// `−1/|k|²` on the unit torus at integer wavenumbers (zero mode gauged to
/// 0) — the HACC-style Poisson Green's function.
fn greens(n: [usize; 3], i: [usize; 3]) -> f64 {
    let k = |i: usize, n: usize| {
        if i <= n / 2 {
            i as f64
        } else {
            i as f64 - n as f64
        }
    };
    let (k0, k1, k2) = (k(i[0], n[0]), k(i[1], n[1]), k(i[2], n[2]));
    let k2sum = (k0 * k0 + k1 * k1 + k2 * k2) * (2.0 * std::f64::consts::PI).powi(2);
    if k2sum == 0.0 {
        0.0
    } else {
        -1.0 / k2sum
    }
}

/// A rank's bound plan: `Fft3d`'s `exec::bind` for c2c, or the two inner
/// plans of `Real3dPlan::bind` for r2c.
enum Bound {
    C2c(BoundPlan),
    R2c((BoundPlan, BoundPlan)),
}

/// One rank's transform state and data.
struct RankState<'p> {
    plan: &'p Plan,
    bound: Bound,
    /// Executor context with one worker.
    ctx: ExecCtx,
    /// c2c: the seeded input block and the working batch.
    input_c: Vec<C64>,
    data: Vec<Vec<C64>>,
    /// r2c: the seeded real block, Green's multipliers over the spectrum
    /// block, the latest solution, and the first solution (every later
    /// step must reproduce it bit for bit).
    input_r: Vec<f64>,
    green: Vec<f64>,
    phi: Vec<f64>,
    expected: Option<Vec<f64>>,
}

impl<'p> RankState<'p> {
    /// Binds the plan (collective) and loads this rank's inputs.
    fn new(
        plan: &'p Plan,
        seed: u64,
        rank: &mut Rank,
        comm: &Comm,
        log: &mut SpanLog,
    ) -> RankState<'p> {
        let me = rank.rank();
        let (bound, input_c, input_r, green) = match plan {
            Plan::C2c(p) => {
                let bound = log.time("distfft.exec.bind", "distfft", 0, None, || {
                    bind(p, rank, comm)
                });
                let input = input::complex_box(seed, p.n, p.dists[0].rank_box(me));
                (Bound::C2c(bound), input, Vec::new(), Vec::new())
            }
            Plan::R2c(p) => {
                let bound = log.time("distfft.real3d.bind", "distfft", 0, None, || {
                    p.bind(rank, comm)
                });
                let mut green = Vec::with_capacity(p.spectrum_box(me).volume());
                input::for_each_index(&p.spectrum_box(me), |i| green.push(greens(p.n, i)));
                let input = input::real_box(seed, p.n, &p.real_input_box(me));
                (Bound::R2c(bound), Vec::new(), input, green)
            }
        };
        RankState {
            plan,
            bound,
            ctx: ExecCtx::with_threads(1),
            data: vec![input_c.clone()],
            input_c,
            input_r,
            green,
            phi: Vec::new(),
            expected: None,
        }
    }

    /// One step's transform work (what the step timer covers). The c2c
    /// step makes the calls `Fft3d::forward` and a `Scale::Full`
    /// `Fft3d::backward` make, so each direction can be spanned.
    fn step(&mut self, rank: &mut Rank, comm: &Comm, log: &mut SpanLog, k: u64, root: SpanId) {
        let ctx = &mut self.ctx;
        match (&self.bound, self.plan) {
            (Bound::C2c(bound), Plan::C2c(p)) => {
                log.time("distfft.execute.fwd", "distfft", k, root, || {
                    execute(
                        p,
                        bound,
                        ctx,
                        rank,
                        comm,
                        &mut self.data,
                        Direction::Forward,
                    )
                });
                log.time("distfft.execute.inv", "distfft", k, root, || {
                    execute(
                        p,
                        bound,
                        ctx,
                        rank,
                        comm,
                        &mut self.data,
                        Direction::Inverse,
                    )
                });
                // The `Scale::Full` pass of `Fft3d::backward`, priced the
                // same way in simulated time.
                log.time("distfft.scale", "distfft", k, root, || {
                    let f = 1.0 / p.total_elems() as f64;
                    for item in self.data.iter_mut() {
                        for v in item.iter_mut() {
                            *v = v.scale(f);
                        }
                    }
                    let km = rank.world().spec().kernel_model();
                    rank.compute_ns(km.pointwise_ns(self.data[0].len(), 2.0));
                });
            }
            (Bound::R2c(bound), Plan::R2c(p)) => {
                let mut spec =
                    log.time("distfft.real3d.execute_forward", "distfft", k, root, || {
                        p.execute_forward(bound, ctx, rank, comm, &self.input_r)
                    });
                log.time("poisson.greens", "perfbench", k, root, || {
                    for (v, g) in spec.iter_mut().zip(&self.green) {
                        *v = v.scale(*g);
                    }
                    let km = rank.world().spec().kernel_model();
                    rank.compute_ns(km.pointwise_ns(spec.len(), 10.0));
                });
                let back = log.time("distfft.real3d.execute_inverse", "distfft", k, root, || {
                    p.execute_inverse(bound, ctx, rank, comm, spec)
                });
                let norm = p.normalization();
                log.time("poisson.normalize", "perfbench", k, root, || {
                    self.phi.clear();
                    self.phi.extend(back.iter().map(|v| v / norm));
                });
            }
            _ => unreachable!("the bound plan always matches its plan kind"),
        }
    }

    /// The per-step output check; restores the c2c input for the next
    /// step.
    fn check(&mut self) -> bool {
        match self.plan {
            Plan::C2c(_) => {
                let scale = self.input_c.iter().map(|z| z.abs()).fold(0.0, f64::max);
                let err = self.data[0]
                    .iter()
                    .zip(&self.input_c)
                    .map(|(a, b)| (*a - *b).abs())
                    .fold(0.0, f64::max);
                self.data[0].copy_from_slice(&self.input_c);
                err <= ROUND_TRIP_TOL * scale
            }
            Plan::R2c(_) => match &self.expected {
                None => {
                    self.expected = Some(self.phi.clone());
                    self.phi.iter().all(|v| v.is_finite())
                }
                Some(e) => e == &self.phi,
            },
        }
    }

    /// Pool statistics (hits, misses) of the executor context.
    fn pool(&self) -> (u64, u64) {
        let s = self.ctx.pool_stats();
        (s.hits, s.misses)
    }

    /// The once-per-run reference check's distributed half: the c2c
    /// forward output block of the seeded input, or the Poisson solution
    /// block of `miniapps::poisson::test_density` (`rho`, shared by the
    /// ranks).
    fn reference_block(
        &mut self,
        rank: &mut Rank,
        comm: &Comm,
        log: &mut SpanLog,
        rho: &OnceLock<Vec<f64>>,
    ) -> Block {
        let me = rank.rank();
        match (&self.bound, self.plan) {
            (Bound::C2c(bound), Plan::C2c(p)) => {
                self.data[0].copy_from_slice(&self.input_c);
                execute(
                    p,
                    bound,
                    &mut self.ctx,
                    rank,
                    comm,
                    &mut self.data,
                    Direction::Forward,
                );
                Block::Complex(self.data[0].clone())
            }
            (_, Plan::R2c(p)) => {
                let rho = rho.get_or_init(|| miniapps::poisson::test_density(p.n));
                self.input_r = input::restrict(rho, p.n, &p.real_input_box(me));
                self.step(rank, comm, log, u64::MAX, None);
                Block::Real(self.phi.clone())
            }
            _ => unreachable!("the bound plan always matches its plan kind"),
        }
    }
}

/// A rank's block of a gathered check field.
enum Block {
    Complex(Vec<C64>),
    Real(Vec<f64>),
}

/// Host budget of one closed-loop phase.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Run at least this long…
    pub seconds: f64,
    /// …and at least this many steps…
    pub min_steps: usize,
    /// …but never longer than this.
    pub max_seconds: f64,
}

/// Shared loop control: each rank's CPU (empty: not pinned), a host
/// barrier, the index of the last phase rank 0 declared finished, and the
/// reference check's density field (built once by the first rank that
/// needs it).
struct Ctl {
    cpus: Vec<usize>,
    barrier: Barrier,
    stopped: AtomicUsize,
    rho: OnceLock<Vec<f64>>,
}

/// Per-rank result of a rank program.
struct RankOut {
    /// Whether the rank thread pinned itself to its CPU.
    pinned: bool,
    /// Host seconds the pin took (it delays the rank's set-up, and is not
    /// counted in `setup_s`).
    pin_s: f64,
    /// Rank 0: when set-up (bind + warm-ups) finished on every rank.
    setup_done: Option<Instant>,
    /// Per phase, per step: host ms of the step on this rank.
    phases: Vec<Vec<f64>>,
    /// Rank 0, per phase: host seconds from the phase's start to each
    /// step's starting barrier, plus the barrier that ended the phase.
    marks: Vec<Vec<f64>>,
    /// Per step of the last phase: simulated ns of the step on this rank.
    sim_ns: Vec<u64>,
    /// `(phase, step)` of every step whose check failed on this rank
    /// (warm-ups as phase `usize::MAX`).
    failures: Vec<(usize, u64)>,
    /// Executor pool (hits, misses) accrued in the last phase.
    pool: (u64, u64),
    /// Rank 0: fftobs (calls, bytes) alltoallv counters accrued in the
    /// last phase, when it was traced.
    counters: Option<(u64, u64)>,
    /// Rank 0: the process's peak resident set (MiB) once every phase has
    /// ended, before the reference block is computed.
    peak_rss_mb: f64,
    /// Reference-check block (`None` when the program skips the check).
    block: Option<Block>,
    /// This rank's spans.
    log: SpanLog,
}

/// What a rank program does after set-up.
#[derive(Debug, Clone)]
struct Program {
    /// Closed-loop phases; empty for a set-up-only repetition.
    phases: Vec<Budget>,
    /// Traced run: bind and the last phase record spans, and the last
    /// phase counts fftobs transport calls.
    traced: bool,
    /// Compute the reference block after the phases.
    reference: bool,
    seed: u64,
}

/// One rank's program: bind, warm up, then the closed-loop phases and the
/// reference block.
fn rank_program(
    plan: &Plan,
    prog: &Program,
    ctl: &Ctl,
    epoch: Instant,
    rank: &mut Rank,
) -> RankOut {
    let me = rank.rank();
    let pin = Instant::now();
    let pinned = ctl
        .cpus
        .get(me)
        .is_some_and(|&cpu| crate::env::pin_current_thread(cpu));
    let pin_s = pin.elapsed().as_secs_f64();
    let mut log = SpanLog::new(epoch, Some(me), prog.traced);
    let comm = Comm::world(rank);
    let mut st = RankState::new(plan, prog.seed, rank, &comm, &mut log);
    log.set_enabled(false);
    let mut out = RankOut {
        pinned,
        pin_s,
        setup_done: None,
        phases: Vec::new(),
        marks: Vec::new(),
        sim_ns: Vec::new(),
        failures: Vec::new(),
        pool: (0, 0),
        counters: None,
        peak_rss_mb: 0.0,
        block: None,
        log: SpanLog::new(epoch, Some(me), false),
    };
    for k in 0..WARMUPS as u64 {
        st.step(rank, &comm, &mut log, 0, None);
        if !st.check() {
            out.failures.push((usize::MAX, k));
        }
    }
    ctl.barrier.wait();
    out.setup_done = (me == 0).then(Instant::now);
    for (pi, budget) in prog.phases.iter().enumerate() {
        let last = pi + 1 == prog.phases.len();
        let traced = last && prog.traced;
        ctl.barrier.wait();
        if traced && me == 0 {
            out.counters = Some(layers::alltoallv_counters());
            fftobs::set_enabled(true);
        }
        log.set_enabled(traced);
        let pool0 = st.pool();
        ctl.barrier.wait();
        let start = Instant::now();
        let mut times = Vec::new();
        let mut marks = Vec::new();
        let mut sims = Vec::new();
        let mut k = 0u64;
        loop {
            // One barrier per step: it starts every rank's step together and
            // publishes rank 0's stop decision from the step before.
            ctl.barrier.wait();
            if me == 0 {
                marks.push(start.elapsed().as_secs_f64());
            }
            if ctl.stopped.load(Ordering::SeqCst) > pi {
                break;
            }
            let sim0 = rank.now();
            let t = Instant::now();
            let root = log.enter("step", "perfbench", k, None);
            st.step(rank, &comm, &mut log, k, root);
            log.exit(root);
            times.push(t.elapsed().as_secs_f64() * 1e3);
            sims.push((rank.now() - sim0).as_ns());
            if !st.check() {
                out.failures.push((pi, k));
            }
            k += 1;
            if me == 0 {
                let el = start.elapsed().as_secs_f64();
                if (k as usize >= budget.min_steps && el >= budget.seconds)
                    || el >= budget.max_seconds
                {
                    ctl.stopped.store(pi + 1, Ordering::SeqCst);
                }
            }
        }
        out.marks.push(marks);
        if traced && me == 0 {
            fftobs::set_enabled(false);
            let (c0, b0) = out.counters.unwrap_or((0, 0));
            let (c1, b1) = layers::alltoallv_counters();
            out.counters = Some((c1 - c0, b1 - b0));
        }
        // No rank moves on to uncounted work until the counters are read.
        ctl.barrier.wait();
        let pool1 = st.pool();
        out.pool = (pool1.0 - pool0.0, pool1.1 - pool0.1);
        out.phases.push(times);
        out.sim_ns = sims;
    }
    log.set_enabled(false);
    if me == 0 {
        out.peak_rss_mb = crate::env::peak_rss_mb();
    }
    if prog.reference {
        // The reference work starts only once the peak is read.
        ctl.barrier.wait();
        out.block = Some(st.reference_block(rank, &comm, &mut log, &ctl.rho));
    }
    out.log = log;
    out
}

/// Runs a rank program on a fresh world; returns the per-rank results.
/// Rank threads are pinned one per allowed CPU when there are enough.
fn run_world(cfg: &Config, plan: &Plan, prog: &Program, epoch: Instant) -> Vec<RankOut> {
    let world = World::new(cfg.machine.clone(), cfg.ranks, WorldOpts::default());
    let mut cpus = crate::env::allowed_cpus();
    if cpus.len() < cfg.ranks {
        cpus.clear();
    }
    let ctl = Ctl {
        cpus,
        barrier: Barrier::new(cfg.ranks),
        stopped: AtomicUsize::new(0),
        rho: OnceLock::new(),
    };
    world.run(|rank| rank_program(plan, prog, &ctl, epoch, rank))
}

/// Notes whether every rank thread was pinned to a CPU of its own.
fn note_pinning(outs: &[RankOut], out: &mut Outcome) {
    let pinned = outs.iter().filter(|o| o.pinned).count();
    out.notes.push(if pinned == outs.len() {
        format!("ranks: {pinned}, each pinned to a CPU of its own")
    } else {
        format!(
            "ranks: {}, {pinned} pinned (needs `taskset` and a CPU per rank)",
            outs.len()
        )
    });
}

/// Per step: the slowest rank's host ms in phase `pi`.
fn step_ms(outs: &[RankOut], pi: usize) -> Vec<f64> {
    let steps = outs[0].phases[pi].len();
    (0..steps)
        .map(|k| outs.iter().map(|o| o.phases[pi][k]).fold(0.0, f64::max))
        .collect()
}

/// Checks the gathered reference blocks against the serial references.
fn reference_check(plan: &Plan, seed: u64, outs: &[RankOut], out: &mut Outcome) {
    match plan {
        Plan::C2c(p) => {
            let n = p.n;
            let mut field = input::complex_box(seed, n, &distfft::Box3::whole(n));
            fftkern::nd::fft_3d(&mut field, n[0], n[1], n[2], Direction::Forward);
            let last = p.dists.len() - 1;
            let mut got = vec![C64::ZERO; field.len()];
            for (r, o) in outs.iter().enumerate() {
                if let Some(Block::Complex(b)) = &o.block {
                    input::scatter(&mut got, n, p.dists[last].rank_box(r), b);
                }
            }
            let scale = field.iter().map(|z| z.abs()).fold(0.0, f64::max);
            let err = got
                .iter()
                .zip(&field)
                .map(|(a, b)| (*a - *b).abs())
                .fold(0.0, f64::max);
            out.notes.push(format!(
                "check: gathered forward vs serial fft_3d rel max err {:.3e}",
                err / scale
            ));
            out.check(err <= REFERENCE_TOL * scale, "c2c forward vs serial fft_3d");
        }
        Plan::R2c(p) => {
            let n = p.n;
            let mut phi = vec![0.0; n[0] * n[1] * n[2]];
            for (r, o) in outs.iter().enumerate() {
                if let Some(Block::Real(b)) = &o.block {
                    input::scatter(&mut phi, n, &p.real_input_box(r), b);
                }
            }
            let reference =
                miniapps::poisson::solve_poisson_local(n, &miniapps::poisson::test_density(n));
            let num: f64 = phi
                .iter()
                .zip(&reference)
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            let den: f64 = reference.iter().map(|v| v * v).sum();
            let rel = (num / den).sqrt();
            out.notes.push(format!(
                "check: Poisson solution vs solve_poisson_local rel L2 err {rel:.3e}"
            ));
            out.check(
                rel <= POISSON_TOL,
                "Poisson solution vs solve_poisson_local",
            );
        }
    }
}

/// Counts every step of one world (warm-ups included) and its failures.
fn count_steps(outs: &[RankOut], out: &mut Outcome) {
    let steps: usize = outs[0].phases.iter().map(Vec::len).sum();
    let failed: std::collections::BTreeSet<(usize, u64)> = outs
        .iter()
        .flat_map(|o| o.failures.iter().copied())
        .collect();
    let failed = failed.len();
    out.attempted += (steps + WARMUPS) as u64;
    out.failed += failed as u64;
    if failed > 0 {
        out.notes.push(format!(
            "check failed: {failed} step(s) failed their output check"
        ));
    }
}

/// The untraced run: set-up-only repetitions, then one set-up that
/// continues into the timed loop and the reference check. `setup_s` is the
/// median over every set-up; `peak_rss_mb` is read when the timed loop
/// ends, before the reference check.
fn run_untraced(args: &Args, cfg: &Config, out: &mut Outcome) -> Result<(), String> {
    let epoch = Instant::now();
    let mut setups = Vec::new();
    loop {
        let timed = !args.another_setup(&setups);
        let prog = Program {
            phases: if timed {
                vec![args.budget()]
            } else {
                Vec::new()
            },
            traced: false,
            reference: timed,
            seed: args.seed,
        };
        // Every set-up starts cold, as a fresh process would.
        fftkern::plan_cache().clear();
        let t0 = Instant::now();
        let plan = Plan::build(cfg)?;
        let outs = run_world(cfg, &plan, &prog, epoch);
        let done = outs[0].setup_done.expect("rank 0 records set-up");
        let pin_s = outs.iter().map(|o| o.pin_s).fold(0.0, f64::max);
        setups.push(done.duration_since(t0).as_secs_f64() - pin_s);
        count_steps(&outs, out);
        if timed {
            let steps = step_ms(&outs, 0);
            note_pinning(&outs, out);
            report_closed_loop(&steps, &outs[0].marks[0], setups.len(), out);
            out.metric("peak_rss_mb", outs[0].peak_rss_mb, "MiB");
            reference_check(&plan, args.seed, &outs, out);
            break;
        }
    }
    out.metric("setup_s", median(&setups), "s");
    Ok(())
}

/// Reports `step_ms.p50`, `step_ms.p90` and `steps_per_s` of a timed
/// phase (see [`closed_loop`]), with the sample counts and the whole-phase
/// p90 and rate beside them.
pub fn report_closed_loop(steps: &[f64], marks: &[f64], setups: usize, out: &mut Outcome) {
    let cl = closed_loop(steps, marks);
    let wall_s = marks[marks.len() - 1] - marks[0];
    out.notes.push(format!(
        "timed: {} steps in {wall_s:.3} s, {} windows; whole-phase p90 {:.4} ms, \
         {:.4} steps/s; setup_s over {setups} set-ups",
        steps.len(),
        cl.windows,
        percentile(steps, 0.9),
        steps.len() as f64 / wall_s
    ));
    out.metric("step_ms.p50", cl.p50, "ms");
    out.metric("step_ms.p90", cl.p90, "ms");
    out.metric("steps_per_s", cl.steps_per_s, "1/s");
}

/// Functional-layer metrics of one traced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct FunctionalTrace {
    /// p50 host ms of an untraced step in the same process (0 when the run
    /// had no untraced phase).
    pub untraced_p50: f64,
    /// p50 host ms of a traced step.
    pub traced_p50: f64,
    /// Median per-step self time of `distfft` spans on the slowest rank.
    pub distfft_self_ms: f64,
    /// Median per-step self time of the step spans themselves plus
    /// benchmark-side work (the step minus its layer calls).
    pub step_residual_ms: f64,
}

/// Traced run of a functional configuration: spans around plan build,
/// bind and every execute, the executor-pool ratio, the count cross-check
/// and the fftkern/mpisim replays. With `compare` it first runs an
/// untraced phase for the tracing overhead.
pub fn run_traced(
    args: &Args,
    cfg: &Config,
    budget: Budget,
    compare: bool,
    epoch: Instant,
    log: &mut SpanLog,
    out: &mut Outcome,
) -> Result<FunctionalTrace, String> {
    let cache = fftkern::plan_cache();
    cache.clear();
    let (h0, m0) = (cache.hits(), cache.misses());
    let mut builds = Vec::new();
    let mut plan = Plan::build(cfg)?;
    for it in 0..5u64 {
        let t = Instant::now();
        let name = plan.span_name();
        plan = log.time(name, "distfft", it, None, || Plan::build(cfg))?;
        builds.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let mut phases = vec![budget];
    if compare {
        phases.insert(0, budget);
    }
    let prog = Program {
        phases,
        traced: true,
        reference: true,
        seed: args.seed,
    };
    let outs = run_world(cfg, &plan, &prog, epoch);
    note_pinning(&outs, out);
    let (h1, m1) = (cache.hits(), cache.misses());
    count_steps(&outs, out);
    reference_check(&plan, args.seed, &outs, out);

    let traced_pi = outs[0].phases.len() - 1;
    let traced = step_ms(&outs, traced_pi);
    let untraced_p50 = if compare {
        median(&step_ms(&outs, 0))
    } else {
        0.0
    };
    let pairs = traced.len() as u64;

    let mut ranks_log = SpanLog::new(epoch, None, true);
    for o in &outs {
        ranks_log.absorb(o.log.clone());
    }
    let per_step_max = |name: &str| -> f64 {
        let mut per_step = vec![0.0f64; traced.len()];
        for s in ranks_log.spans().iter().filter(|s| s.name == name) {
            if let Some(v) = per_step.get_mut(s.step as usize) {
                *v = v.max(s.ms());
            }
        }
        median(&per_step)
    };
    let (fwd, inv, bind_name) = match &plan {
        Plan::C2c(_) => (
            "distfft.execute.fwd",
            "distfft.execute.inv",
            "distfft.exec.bind",
        ),
        Plan::R2c(_) => (
            "distfft.real3d.execute_forward",
            "distfft.real3d.execute_inverse",
            "distfft.real3d.bind",
        ),
    };
    let fwd_ms = per_step_max(fwd);
    let inv_ms = per_step_max(inv);
    let bind_ms = ranks_log
        .spans()
        .iter()
        .filter(|s| s.name == bind_name)
        .map(|s| s.ms())
        .fold(0.0, f64::max);
    let distfft_self = median(&ranks_log.layer_self_per_step("step", "distfft"));
    let bench_self = median(&ranks_log.layer_self_per_step("step", "perfbench"));

    let (hits, misses) = outs
        .iter()
        .fold((0, 0), |(h, m), o| (h + o.pool.0, m + o.pool.1));
    let inner = plan.inner();
    let (msgs, bytes) = layers::pair_traffic(&inner);
    if let Some((calls, cbytes)) = outs[0].counters {
        let (ec, eb) = layers::expected_counters(&inner, true);
        let ok = calls == ec * pairs && cbytes == eb * pairs;
        out.notes.push(format!(
            "check: fftobs alltoallv calls {calls} bytes {cbytes} over {pairs} steps \
             (expected {} / {})",
            ec * pairs,
            eb * pairs
        ));
        out.check(ok, "fftobs transport counters vs ReshapeSpec accounting");
    }

    let ranks: Vec<usize> = (0..cfg.ranks).collect();
    let kern = layers::kernel_replay(&inner, &ranks, 10, args.seed, log);
    let pack = layers::pack_replay(&inner, &ranks, 10, args.seed, log);
    let (tr, tr_log) = layers::transport_replay(&inner, &cfg.machine, 10, epoch);
    log.absorb(tr_log);
    let spawn = layers::spawn_replay(&cfg.machine, cfg.ranks, 20, log);
    log.absorb(ranks_log);

    let mb = bytes as f64 / 1e6;
    out.metric("fftkern.fft_ms", kern.fft_ms, "ms");
    out.metric("fftkern.gflops.contig", kern.gflops_contig, "GFLOP/s");
    out.metric("fftkern.gflops.strided", kern.gflops_strided, "GFLOP/s");
    out.metric("fftkern.ops_per_byte", kern.ops_per_byte, "flop/B");
    out.metric(
        "fftkern.plan_cache.hit_ratio",
        ratio(h1 - h0, m1 - m0),
        "ratio",
    );
    out.metric("distfft.plan.build_ms", median(&builds), "ms");
    out.metric("distfft.bind_ms", bind_ms, "ms");
    out.metric("distfft.execute_ms.fwd", fwd_ms, "ms");
    out.metric("distfft.execute_ms.inv", inv_ms, "ms");
    out.metric("distfft.exec.pool_hit_ratio", ratio(hits, misses), "ratio");
    out.metric(
        "distfft.exec.residual_ms",
        fwd_ms + inv_ms - (kern.fft_ms + pack.pack_ms + pack.unpack_ms + tr.full_ms),
        "ms",
    );
    out.metric("mpisim.pack.gbs", pack.pack_gbs, "GB/s");
    out.metric("mpisim.unpack.gbs", pack.unpack_gbs, "GB/s");
    out.metric("mpisim.pack_ms", pack.pack_ms, "ms");
    out.metric("mpisim.unpack_ms", pack.unpack_ms, "ms");
    out.metric("mpisim.transport_ms", tr.full_ms, "ms");
    out.metric(
        "mpisim.transport.ns_per_msg",
        tr.empty_ms * 1e6 / msgs as f64,
        "ns",
    );
    out.metric(
        "mpisim.transport.ns_per_mb",
        (tr.full_ms - tr.empty_ms) * 1e6 / mb,
        "ns/MB",
    );
    out.metric("mpisim.transport.wait_ms", tr.wait_ms, "ms");
    out.metric("mpisim.world.spawn_ms", spawn, "ms");
    out.metric("mpisim.msgs_per_step", msgs as f64, "count");
    out.metric("mpisim.bytes_per_step", bytes as f64, "count");
    let sim: Vec<f64> = (0..outs[0].sim_ns.len())
        .map(|k| outs.iter().map(|o| o.sim_ns[k]).max().unwrap_or(0) as f64)
        .collect();
    out.metric("sim.functional_step_ns", median(&sim), "sim_ns");
    Ok(FunctionalTrace {
        untraced_p50,
        traced_p50: median(&traced),
        distfft_self_ms: distfft_self,
        step_residual_ms: bench_self,
    })
}

fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Runs `c2c-pow2-64` or `r2c-smooth-96`.
pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let cfg = Config::of(args.workload);
    if !args.trace {
        return run_untraced(args, &cfg, out);
    }
    let epoch = Instant::now();
    let mut log = SpanLog::new(epoch, None, true);
    let half = Budget {
        seconds: args.seconds / 2.0,
        min_steps: args.min_steps.min(20),
        max_seconds: 60.0,
    };
    let ft = run_traced(args, &cfg, half, true, epoch, &mut log, out)?;
    let plan = Plan::build(&cfg)?;
    crate::analytic::dry_mirror(&plan.inner(), &cfg.machine, &mut log, out);
    crate::analytic::trace_summary(&ft, out);
    crate::analytic::write_spans(args, &log, out);
    Ok(())
}
