#![forbid(unsafe_code)]
//! # perfbench — host-clock benchmark of the distributed FFT reproduction
//!
//! Three closed-loop workloads, each driven by one caller that issues the
//! next step only after the previous one returns:
//!
//! * `c2c-pow2-64` — [`Workload::C2cPow2_64`]
//! * `r2c-smooth-96` — [`Workload::R2cSmooth96`]
//! * `analytic-brick-768` — [`Workload::AnalyticBrick768`]
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics; a traced
//! run (`--trace 1`) records spans around every public call it makes into
//! `fftkern`, `distfft` and `mpisim`, and reports per-layer metrics. All
//! times are host wall-clock; simulated time is reported only as counts.
//! See `README.md` beside this crate for the metric map.

pub mod analytic;
pub mod env;
pub mod functional;
pub mod input;
pub mod layers;
pub mod spans;
pub mod stats;

use std::fmt::Write as _;
use std::path::PathBuf;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The default heFFTe configuration used functionally: a 64³ complex
    /// transform on 2 ranks of `MachineSpec::testbox` with 1×2 pencils,
    /// brick I/O and AllToAllV; one step is `Fft3d::forward` followed by a
    /// `Scale::Full` `Fft3d::backward`.
    C2cPow2_64,
    /// A Poisson step through `Real3dPlan` on 96³ with 2 ranks and default
    /// options: r2c forward, Green's-function multiply, c2r inverse.
    R2cSmooth96,
    /// The figure-harness path: `DryRunner` over 512³ c2c pencils with
    /// brick I/O and AllToAllV on `MachineSpec::summit()` at 768 ranks; one
    /// step is one `DryRunner::run`, directions alternating.
    AnalyticBrick768,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::C2cPow2_64,
        Workload::R2cSmooth96,
        Workload::AnalyticBrick768,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::C2cPow2_64 => "c2c-pow2-64",
            Workload::R2cSmooth96 => "r2c-smooth-96",
            Workload::AnalyticBrick768 => "analytic-brick-768",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark.
    pub fn why(self) -> &'static str {
        match self {
            Workload::C2cPow2_64 => {
                "Power-of-two lines run the SIMD Stockham kernels, so most host time goes to \
                 data movement: executor pack/unpack, mpisim transport and rank \
                 synchronisation. This workload moves when those layers do, and only partly \
                 with kernels."
            }
            Workload::R2cSmooth96 => {
                "96 = 2^5·3 is the smooth, LAMMPS-PPPM-style length that falls to the scalar \
                 mixed-radix kernels, so fftkern dominates here while c2c-pow2-64 bypasses \
                 it. The r2c path also uses the executor differently: real fold/untangle, \
                 half-spectrum reshapes, and a pointwise stage between the transforms."
            }
            Workload::AnalyticBrick768 => {
                "Users wait on this path when they regenerate figures. The mpisim schedule \
                 walkers over the world-wide brick-pencil group (768^2 pairs) do most of the \
                 work, and kernels and data movement do none. It mirrors the two functional \
                 workloads."
            }
        }
    }
}

/// Parsed command line, plus run-shape fields at their defaults (the
/// self-test shortens them after parsing).
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Host seconds the timed section runs for (extended until
    /// `min_steps` steps have completed).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Fewest timed steps of an untraced run: enough that at least ten
    /// samples lie beyond the p90.
    pub min_steps: usize,
    /// Fewest set-ups per untraced run (the timed one included);
    /// `setup_s` is their median.
    pub setup_reps: usize,
    /// More set-ups are made while their summed time stays under this
    /// many seconds (up to [`MAX_SETUPS`]).
    pub setup_budget_s: f64,
    /// Where the traced run writes its spans (`None`: not written).
    pub spans_out: Option<PathBuf>,
}

/// Most set-ups one run makes.
pub const MAX_SETUPS: usize = 201;

/// Default directory of span files, relative to the working directory.
pub const SPANS_DIR: &str = "perfbench/out";

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    workload =
                        Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v}"))?);
                }
                "--seed" => seed = Some(parse_num::<u64>(flag, &value()?)?),
                "--seconds" => seconds = Some(parse_num::<f64>(flag, &value()?)?),
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, got {v}")),
                    }
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        let seconds = seconds.unwrap_or(10.0);
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err(format!("--seconds must be positive, got {seconds}"));
        }
        let seed = seed.unwrap_or(1);
        let spans_out = trace.then(|| {
            PathBuf::from(SPANS_DIR).join(format!("{}-seed{seed}.spans.json", workload.name()))
        });
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
            min_steps: stats::min_samples_for_tail(0.9, 10),
            setup_reps: 5,
            setup_budget_s: 3.0,
            spans_out,
        })
    }

    /// Whether another set-up-only repetition should run before the timed
    /// one, given the set-up times so far (the timed repetition's set-up
    /// counts as one more).
    pub fn another_setup(&self, done: &[f64]) -> bool {
        let next = done.len() + 1;
        next < self.setup_reps
            || (next < MAX_SETUPS && done.iter().sum::<f64>() < self.setup_budget_s)
    }

    /// The timed budget of an untraced run.
    pub fn budget(&self) -> functional::Budget {
        functional::Budget {
            seconds: self.seconds,
            min_steps: self.min_steps,
            max_seconds: 150.0,
        }
    }
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}"))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Result of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Checked operations (timed steps plus once-per-run checks).
    pub attempted: u64,
    /// Checked operations whose check failed.
    pub failed: u64,
    /// Reported metrics, in order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("check failed: {what}"));
        }
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Adds a metric, replacing an earlier one of the same name.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.retain(|m| m.name != name);
        self.metric(name, value, unit);
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                value,
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// End-to-end metrics of an untraced run: (name, unit).
pub const END_TO_END: [(&str, &str); 5] = [
    ("step_ms.p50", "ms"),
    ("step_ms.p90", "ms"),
    ("steps_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of a traced run: (name, unit). Every workload
/// reports every one: functional layers on its functional configuration,
/// dry-run layers on its analytic configuration (see `README.md`).
pub const PER_LAYER: [(&str, &str); 37] = [
    ("fftkern.fft_ms", "ms"),
    ("fftkern.gflops.contig", "GFLOP/s"),
    ("fftkern.gflops.strided", "GFLOP/s"),
    ("fftkern.ops_per_byte", "flop/B"),
    ("fftkern.plan_cache.hit_ratio", "ratio"),
    ("distfft.plan.build_ms", "ms"),
    ("distfft.bind_ms", "ms"),
    ("distfft.execute_ms.fwd", "ms"),
    ("distfft.execute_ms.inv", "ms"),
    ("distfft.exec.pool_hit_ratio", "ratio"),
    ("distfft.exec.residual_ms", "ms"),
    ("distfft.dryrun.run_ms", "ms"),
    ("distfft.dryrun.events_per_s", "1/s"),
    ("distfft.dryrun.self_ms", "ms"),
    ("mpisim.pack.gbs", "GB/s"),
    ("mpisim.unpack.gbs", "GB/s"),
    ("mpisim.pack_ms", "ms"),
    ("mpisim.unpack_ms", "ms"),
    ("mpisim.transport_ms", "ms"),
    ("mpisim.transport.ns_per_msg", "ns"),
    ("mpisim.transport.ns_per_mb", "ns/MB"),
    ("mpisim.transport.wait_ms", "ms"),
    ("mpisim.world.spawn_ms", "ms"),
    ("mpisim.walker.alltoallv_ms", "ms"),
    ("mpisim.walker.memo_ms", "ms"),
    ("mpisim.walker.pairs_per_s", "1/s"),
    ("mpisim.msgs_per_step", "count"),
    ("mpisim.bytes_per_step", "count"),
    ("distfft.dryrun.events_per_step", "count"),
    ("sim.makespan_ns", "sim_ns"),
    ("sim.functional_step_ns", "sim_ns"),
    ("trace.untraced_step_ms.p50", "ms"),
    ("trace.step_ms.p50", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.self_ms.distfft", "ms"),
    ("trace.step_residual_ms", "ms"),
    ("trace.spans", "count"),
];

/// Metrics that repeat exactly across runs (counts and simulated time).
pub const COUNTS: [&str; 5] = [
    "mpisim.msgs_per_step",
    "mpisim.bytes_per_step",
    "distfft.dryrun.events_per_step",
    "sim.makespan_ns",
    "sim.functional_step_ns",
];

/// Runs one workload. `Err` means the run could not be carried out at all
/// (bad plan, refused environment); failed output checks are reported in
/// the [`Outcome`] instead.
pub fn run(args: &Args) -> Result<Outcome, String> {
    env::refuse_overrides()?;
    let mut out = Outcome {
        notes: vec![env::stamp(), format!("why: {}", args.workload.why())],
        ..Outcome::default()
    };
    match args.workload {
        Workload::C2cPow2_64 | Workload::R2cSmooth96 => functional::run(args, &mut out)?,
        Workload::AnalyticBrick768 => analytic::run(args, &mut out)?,
    }
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    out.metrics = declared
        .iter()
        .map(
            |&(name, unit)| match out.metrics.iter().find(|m| m.name == name) {
                Some(m) if m.unit == unit => Ok(m.clone()),
                Some(m) => Err(format!("metric {name} reported in {} not {unit}", m.unit)),
                None => Err(format!("metric {name} not measured")),
            },
        )
        .collect::<Result<_, _>>()?;
    out.correct = out.failed == 0 && out.attempted > 0;
    Ok(out)
}
