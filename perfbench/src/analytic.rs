//! The analytic workload `analytic-brick-768`, the dry-run mirrors of the
//! functional workloads, and the traced-run summary shared by all three.

use std::time::Instant;

use distfft::dryrun::{DryRunOpts, DryRunner};
use distfft::exec::{bind, execute, ExecCtx};
use distfft::plan::{FftOptions, FftPlan};
use fftkern::Direction;
use mpisim::comm::{Comm, World, WorldOpts};
use simgrid::MachineSpec;

use crate::functional::{self, Budget, FunctionalTrace, WARMUPS};
use crate::spans::SpanLog;
use crate::stats::median;
use crate::{input, layers, Args, Outcome, Workload};

/// Global extents of the analytic workload.
pub const N: [usize; 3] = [512; 3];
/// Simulated ranks of the analytic workload.
pub const RANKS: usize = 768;
/// Transforms after which the dry run's makespans repeat: forward steps
/// settle to one value, inverse steps to a two-value cycle, so step `k`
/// repeats step `k − PERIOD`.
pub const PERIOD: usize = 4;
/// Transforms (warm-ups included) before that cycle is reached.
pub const SETTLE: usize = 4;

fn direction(k: usize) -> Direction {
    if k.is_multiple_of(2) {
        Direction::Forward
    } else {
        Direction::Inverse
    }
}

/// Dry runs of one or more plans as one transform: forward visits the
/// plans in order, inverse in reverse (the r2c pipeline's two stages).
struct DryLoop<'a> {
    runners: Vec<DryRunner<'a>>,
}

impl<'a> DryLoop<'a> {
    fn new(plans: &[&'a FftPlan], machine: &'a MachineSpec) -> DryLoop<'a> {
        DryLoop {
            runners: plans
                .iter()
                .map(|p| DryRunner::new(p, machine, DryRunOpts::default()))
                .collect(),
        }
    }

    /// One transform; returns its simulated makespan (ns, summed over the
    /// stages) and its trace event count.
    fn run(&mut self, dir: Direction) -> (u64, u64) {
        let mut order: Vec<&mut DryRunner<'a>> = self.runners.iter_mut().collect();
        if dir == Direction::Inverse {
            order.reverse();
        }
        order.into_iter().fold((0, 0), |(ns, ev), r| {
            let rep = r.run(dir);
            let events: usize = rep.traces.iter().map(|t| t.events.len()).sum();
            (ns + rep.makespan().as_ns(), ev + events as u64)
        })
    }
}

/// Per-step record of a dry-run phase.
#[derive(Debug, Default)]
struct DryPhase {
    host_ms: Vec<f64>,
    /// Host seconds from the phase's start to each step's start, plus the
    /// end of the last step.
    marks: Vec<f64>,
    /// Simulated makespan of every transform, in order.
    makespans: Vec<u64>,
    /// Simulated makespan of every forward transform.
    forward: Vec<u64>,
    events: Vec<u64>,
}

/// Runs closed-loop dry-run steps (one transform each, directions
/// alternating, continuing the absolute transform index `k0`) until the
/// budget is spent and the step count is even. Spans each step when the
/// log is enabled.
fn dry_phase(dl: &mut DryLoop, k0: usize, budget: Budget, log: &mut SpanLog) -> DryPhase {
    let start = Instant::now();
    let mut ph = DryPhase::default();
    loop {
        let k = k0 + ph.host_ms.len();
        let step = (k - k0) as u64;
        ph.marks.push(start.elapsed().as_secs_f64());
        let t = Instant::now();
        let root = log.enter("step", "perfbench", step, None);
        let (ns, ev) = log.time("distfft.dryrun.run", "distfft", step, root, || {
            dl.run(direction(k))
        });
        log.exit(root);
        ph.host_ms.push(t.elapsed().as_secs_f64() * 1e3);
        ph.makespans.push(ns);
        if direction(k) == Direction::Forward {
            ph.forward.push(ns);
        }
        ph.events.push(ev);
        let el = start.elapsed().as_secs_f64();
        let enough = ph.host_ms.len() >= budget.min_steps && el >= budget.seconds;
        if ph.host_ms.len() % 2 == 0 && (enough || el >= budget.max_seconds) {
            ph.marks.push(el);
            return ph;
        }
    }
}

/// Checks every timed step's makespan: once settled, each must equal the
/// makespan `PERIOD` transforms earlier (warm-ups included in `history`).
fn check_periodic(history: &[u64], first_timed: usize, out: &mut Outcome) {
    let mut bad = 0;
    for k in first_timed..history.len() {
        let ok = if k >= SETTLE + PERIOD {
            history[k] == history[k - PERIOD]
        } else {
            history[k] > 0
        };
        out.attempted += 1;
        if !ok {
            bad += 1;
        }
    }
    out.failed += bad;
    if bad > 0 {
        out.notes.push(format!(
            "check failed: {bad} step(s) broke the makespan cycle"
        ));
    }
}

/// The once-per-run consistency check: on a 32³ × 8-rank Summit plan, the
/// dry run's per-rank completion times and event traces equal the
/// functional executor's, for a forward and an inverse transform.
fn consistency_check(seed: u64, out: &mut Outcome) {
    let machine = MachineSpec::summit();
    let cfg = functional::Config::of(Workload::AnalyticBrick768);
    let Ok(plan) = FftPlan::try_build(cfg.n, cfg.ranks, FftOptions::default()) else {
        out.check(false, "32^3 x 8 consistency plan builds");
        return;
    };
    let world = World::new(machine.clone(), cfg.ranks, WorldOpts::default());
    let functional = world.run(|rank| {
        let comm = Comm::world(rank);
        let bound = bind(&plan, rank, &comm);
        let mut ctx = ExecCtx::new();
        let mut data = vec![input::complex_box(
            seed,
            plan.n,
            plan.dists[0].rank_box(rank.rank()),
        )];
        [Direction::Forward, Direction::Inverse].map(|dir| {
            let r = execute(&plan, &bound, &mut ctx, rank, &comm, &mut data, dir);
            (r.total, r.trace.events)
        })
    });
    let mut runner = DryRunner::new(&plan, &machine, DryRunOpts::default());
    let mut ok = true;
    for (i, dir) in [Direction::Forward, Direction::Inverse]
        .into_iter()
        .enumerate()
    {
        let rep = runner.run(dir);
        for (r, f) in functional.iter().enumerate() {
            ok &= rep.per_rank_total[r] == f[i].0 && rep.traces[r].events == f[i].1;
        }
    }
    out.notes.push(format!(
        "check: 32^3 x 8-rank dry run equals functional execute per rank: {ok}"
    ));
    out.check(ok, "dry run vs functional execute on 32^3 x 8 ranks");
}

fn build_768() -> Result<FftPlan, String> {
    FftPlan::try_build(N, RANKS, FftOptions::default())
        .map_err(|e| format!("plan build failed: {e}"))
}

/// Runs `analytic-brick-768`: set-up-only repetitions (plan build,
/// `DryRunner::new`, two warm-ups), then one set-up that continues into
/// the timed loop; `peak_rss_mb` is read before the consistency check.
pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let machine = MachineSpec::summit();
    if args.trace {
        return run_traced(args, &machine, out);
    }
    let mut setups = Vec::new();
    loop {
        let timed = !args.another_setup(&setups);
        let t0 = Instant::now();
        let plan = build_768()?;
        let mut dl = DryLoop::new(&[&plan], &machine);
        let mut history: Vec<u64> = (0..WARMUPS).map(|k| dl.run(direction(k)).0).collect();
        setups.push(t0.elapsed().as_secs_f64());
        if !timed {
            continue;
        }
        let ph = dry_phase(
            &mut dl,
            WARMUPS,
            args.budget(),
            &mut SpanLog::new(t0, None, false),
        );
        history.extend(&ph.makespans);
        check_periodic(&history, WARMUPS, out);
        functional::report_closed_loop(&ph.host_ms, &ph.marks, setups.len(), out);
        out.metric("peak_rss_mb", crate::env::peak_rss_mb(), "MiB");
        break;
    }
    out.metric("setup_s", median(&setups), "s");
    consistency_check(args.seed, out);
    Ok(())
}

/// Traced `analytic-brick-768`: spans around plan build, `DryRunner::new`
/// and every `DryRunner::run`; walker replays on the 768-rank plan; the
/// functional layers on the 32³ × 8-rank mirror.
fn run_traced(args: &Args, machine: &MachineSpec, out: &mut Outcome) -> Result<(), String> {
    let epoch = Instant::now();
    let mut log = SpanLog::new(epoch, None, true);
    let mirror = functional::Config::of(Workload::AnalyticBrick768);
    let mirror_budget = Budget {
        seconds: 1.0_f64.min(args.seconds),
        min_steps: args.min_steps.min(20),
        max_seconds: 20.0,
    };
    functional::run_traced(args, &mirror, mirror_budget, false, epoch, &mut log, out)?;

    let mut builds = Vec::new();
    let mut plan = build_768()?;
    for it in 0..5u64 {
        let t = Instant::now();
        plan = log.time("distfft.plan.try_build", "distfft", it, None, build_768)?;
        builds.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.set("distfft.plan.build_ms", median(&builds), "ms");
    let mut dl = log.time("distfft.dryrun.new", "distfft", 0, None, || {
        DryLoop::new(&[&plan], machine)
    });
    let mut history: Vec<u64> = (0..WARMUPS).map(|k| dl.run(direction(k)).0).collect();
    let half = Budget {
        seconds: args.seconds / 2.0,
        min_steps: args.min_steps.min(20),
        max_seconds: 60.0,
    };
    let mut quiet = SpanLog::new(epoch, None, false);
    let untraced = dry_phase(&mut dl, history.len(), half, &mut quiet);
    history.extend(&untraced.makespans);
    let (c0, b0) = layers::alltoallv_counters();
    fftobs::set_enabled(true);
    let mut phase_log = SpanLog::new(epoch, None, true);
    let traced = dry_phase(&mut dl, history.len(), half, &mut phase_log);
    fftobs::set_enabled(false);
    let (c1, b1) = layers::alltoallv_counters();
    history.extend(&traced.makespans);
    check_periodic(&history, WARMUPS, out);
    consistency_check(args.seed, out);

    let pairs = traced.host_ms.len() as u64 / 2;
    let (ec, eb) = layers::expected_counters(&[&plan], false);
    out.notes.push(format!(
        "check: fftobs alltoallv calls {} bytes {} over {pairs} transform pairs \
         (expected {} / {})",
        c1 - c0,
        b1 - b0,
        ec * pairs,
        eb * pairs
    ));
    out.check(
        c1 - c0 == ec * pairs && b1 - b0 == eb * pairs,
        "fftobs walker counters vs ReshapeSpec accounting",
    );

    let walker = layers::walker_replay(&[&plan], machine, 1, &mut log);
    let (msgs, bytes) = layers::pair_traffic(&[&plan]);
    dry_metrics(&traced, &walker, 0.5, out);
    out.set("mpisim.msgs_per_step", msgs as f64 / 2.0, "count");
    out.set("mpisim.bytes_per_step", bytes as f64 / 2.0, "count");
    let ft = FunctionalTrace {
        untraced_p50: median(&untraced.host_ms),
        traced_p50: median(&traced.host_ms),
        distfft_self_ms: median(&phase_log.layer_self_per_step("step", "distfft")),
        step_residual_ms: median(&phase_log.layer_self_per_step("step", "perfbench")),
    };
    log.absorb(phase_log);
    trace_summary(&ft, out);
    write_spans(args, &log, out);
    Ok(())
}

/// Dry-run and walker metrics. `step_pairs` is the fraction of a
/// transform pair one step of `ph` covers (walker replays are per pair).
fn dry_metrics(ph: &DryPhase, walker: &layers::WalkerReplay, step_pairs: f64, out: &mut Outcome) {
    let run_ms = median(&ph.host_ms);
    let events = median(&ph.events.iter().map(|&e| e as f64).collect::<Vec<_>>());
    let forward: Vec<f64> = ph.forward.iter().map(|&m| m as f64).collect();
    out.set("distfft.dryrun.run_ms", run_ms, "ms");
    out.set("distfft.dryrun.events_per_step", events, "count");
    out.set(
        "distfft.dryrun.events_per_s",
        events / (run_ms / 1e3),
        "1/s",
    );
    out.set(
        "distfft.dryrun.self_ms",
        run_ms - walker.memo_ms * step_pairs,
        "ms",
    );
    out.set(
        "mpisim.walker.alltoallv_ms",
        walker.cold_ms * step_pairs,
        "ms",
    );
    out.set("mpisim.walker.memo_ms", walker.memo_ms * step_pairs, "ms");
    out.set(
        "mpisim.walker.pairs_per_s",
        walker.pairs as f64 / (walker.cold_ms / 1e3),
        "1/s",
    );
    out.set("sim.makespan_ns", median(&forward), "sim_ns");
}

/// The dry-run mirror of a functional workload: `DryRunner` over the same
/// plans, one step per transform pair (forward then inverse).
pub fn dry_mirror(plans: &[&FftPlan], machine: &MachineSpec, log: &mut SpanLog, out: &mut Outcome) {
    let mut dl = DryLoop::new(plans, machine);
    for k in 0..WARMUPS {
        dl.run(direction(k));
    }
    let mut ph = DryPhase::default();
    for step in 0..30u64 {
        let t = Instant::now();
        let root = log.enter("replay.dryrun", "perfbench", step, None);
        let mut ns = 0;
        let mut ev = 0;
        for dir in [Direction::Forward, Direction::Inverse] {
            let (m, e) = log.time("distfft.dryrun.run", "distfft", step, root, || dl.run(dir));
            if dir == Direction::Forward {
                ns = m;
            }
            ev += e;
        }
        log.exit(root);
        ph.host_ms.push(t.elapsed().as_secs_f64() * 1e3);
        ph.forward.push(ns);
        ph.events.push(ev);
    }
    let walker = layers::walker_replay(plans, machine, 5, log);
    dry_metrics(&ph, &walker, 1.0, out);
}

/// Tracing overhead and the step decomposition of the primary path.
pub fn trace_summary(ft: &FunctionalTrace, out: &mut Outcome) {
    out.metric("trace.untraced_step_ms.p50", ft.untraced_p50, "ms");
    out.metric("trace.step_ms.p50", ft.traced_p50, "ms");
    out.metric("trace.overhead_ms", ft.traced_p50 - ft.untraced_p50, "ms");
    out.metric("trace.self_ms.distfft", ft.distfft_self_ms, "ms");
    out.metric("trace.step_residual_ms", ft.step_residual_ms, "ms");
}

/// Writes the run's spans to `args.spans_out`.
pub fn write_spans(args: &Args, log: &SpanLog, out: &mut Outcome) {
    out.metric("trace.spans", log.spans().len() as f64, "count");
    let Some(path) = &args.spans_out else {
        return;
    };
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, log.to_json()));
    match written {
        Ok(()) => out.notes.push(format!("spans: {}", path.display())),
        Err(e) => out
            .notes
            .push(format!("spans not written to {}: {e}", path.display())),
    }
}
