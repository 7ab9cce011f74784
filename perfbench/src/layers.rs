//! Per-layer replays for the traced run.
//!
//! `distfft`'s executors call into `fftkern` and `mpisim` from inside the
//! library, where this benchmark cannot place spans. Each replay below
//! re-issues one layer's share of a step through that layer's own public
//! functions — with the shapes, regions and byte counts the plan gives —
//! and times those calls from the benchmark's code. All replays report
//! time *per transform pair* (one forward plus one inverse); the caller
//! scales to its workload's step.

use std::sync::Barrier;
use std::time::Instant;

use distfft::plan::{FftPlan, Step};
use distfft::reshape::ReshapeSpec;
use distfft::Box3;
use fftkern::plan::Layout;
use fftkern::{Direction, C64};
use mpisim::coll;
use mpisim::comm::{Comm, World, WorldOpts};
use mpisim::pattern::{NetParams, PhaseEnv, SchedMemo};
use mpisim::Subarray;
use simgrid::{MachineSpec, SimTime};

use crate::spans::SpanLog;
use crate::stats::median;

const ELEM_BYTES: usize = std::mem::size_of::<C64>();

/// Every reshape a transform pair runs, as `(plan, spec, from, to)`
/// distribution indices: forward reshapes of each plan in order, then the
/// reverse reshapes in reverse order.
pub fn pair_reshapes<'a>(
    plans: &[&'a FftPlan],
) -> Vec<(&'a FftPlan, &'a ReshapeSpec, usize, usize)> {
    let mut out = Vec::new();
    for plan in plans {
        for (ri, spec) in plan.reshapes.iter().enumerate() {
            out.push((*plan, spec, ri, ri + 1));
        }
    }
    for plan in plans.iter().rev() {
        for (ri, spec) in plan.reshapes_rev.iter().enumerate().rev() {
            out.push((*plan, spec, ri + 1, ri));
        }
    }
    out
}

/// Every local FFT pass of a transform pair as `(plan, dist, axis, dir)`.
fn pair_kernels<'a>(plans: &[&'a FftPlan]) -> Vec<(&'a FftPlan, usize, usize, Direction)> {
    let fwd = plans.iter().flat_map(|p| {
        p.steps.iter().filter_map(move |s| match *s {
            Step::LocalFft { dist, axis } => Some((*p, dist, axis, Direction::Forward)),
            Step::Reshape(_) => None,
        })
    });
    let inv = plans.iter().rev().flat_map(|p| {
        p.steps.iter().rev().filter_map(move |s| match *s {
            Step::LocalFft { dist, axis } => Some((*p, dist, axis, Direction::Inverse)),
            Step::Reshape(_) => None,
        })
    });
    fwd.chain(inv).collect()
}

/// Messages and bytes of a transform pair: off-rank peers and off-rank
/// payload bytes summed over every rank and reshape.
pub fn pair_traffic(plans: &[&FftPlan]) -> (u64, u64) {
    let mut msgs = 0u64;
    let mut bytes = 0u64;
    for (plan, spec, _, _) in pair_reshapes(plans) {
        for r in 0..plan.nranks {
            msgs += spec.peer_count(r) as u64;
            bytes += spec.offrank_send_bytes(r) as u64;
        }
    }
    (msgs, bytes)
}

/// Current `fftobs` `mpisim.calls.alltoallv` and `mpisim.bytes.alltoallv`
/// counter totals.
pub fn alltoallv_counters() -> (u64, u64) {
    let snap = fftobs::registry().snapshot();
    (
        snap.counter("mpisim.calls.alltoallv").unwrap_or(0),
        snap.counter("mpisim.bytes.alltoallv").unwrap_or(0),
    )
}

/// What the `fftobs` `mpisim.calls.alltoallv` / `mpisim.bytes.alltoallv`
/// counters must read after one transform pair. Every group member prices
/// the collective once in functional mode (`per_member`); the dry run
/// prices each group once.
pub fn expected_counters(plans: &[&FftPlan], per_member: bool) -> (u64, u64) {
    let mut calls = 0u64;
    let mut bytes = 0u64;
    for (_, spec, _, _) in pair_reshapes(plans) {
        for g in &spec.groups {
            let total: u64 = spec
                .group_byte_matrix(g)
                .iter()
                .flatten()
                .map(|&b| b as u64)
                .sum();
            let pricings = if per_member { g.len() as u64 } else { 1 };
            calls += pricings;
            bytes += pricings * total;
        }
    }
    (calls, bytes)
}

/// Kernel replay result, per transform pair.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelReplay {
    /// Busiest rank's local-FFT time, ms (median over iterations).
    pub fft_ms: f64,
    /// 5·n·log₂n·lines / t over the contiguous (axis-2) passes, GFLOP/s.
    pub gflops_contig: f64,
    /// The same over the strided passes, GFLOP/s.
    pub gflops_strided: f64,
    /// Computed flops per byte moved (each line read and written once).
    pub ops_per_byte: f64,
}

fn flops(n: usize, lines: usize) -> f64 {
    5.0 * n as f64 * (n as f64).log2() * lines as f64
}

/// Replays every `Step::LocalFft` of a transform pair on each of `ranks`
/// through `plan_cache().plan1d` + `execute_inplace_scratch`, with the
/// batch/layout split the functional executor uses.
pub fn kernel_replay(
    plans: &[&FftPlan],
    ranks: &[usize],
    iters: usize,
    seed: u64,
    log: &mut SpanLog,
) -> KernelReplay {
    let cache = fftkern::plan_cache();
    let kernels = pair_kernels(plans);
    let mut per_iter = Vec::with_capacity(iters);
    let (mut t_c, mut f_c, mut t_s, mut f_s, mut bytes) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for it in 0..iters {
        let root = log.enter("replay.fftkern", "perfbench", it as u64, None);
        let mut busiest = 0.0f64;
        for &r in ranks {
            let mut rank_ms = 0.0;
            for &(plan, dist, axis, dir) in &kernels {
                let b = plan.dists[dist].rank_box(r);
                if b.is_empty() {
                    continue;
                }
                let s = b.shape();
                let n = s[axis];
                let (batch, layout, calls, call_len) = match axis {
                    2 => (s[0] * s[1], Layout::contiguous(n), 1, b.volume()),
                    1 => (s[2], Layout::strided(s[2]), s[0], s[1] * s[2]),
                    _ => (s[1] * s[2], Layout::strided(s[1] * s[2]), 1, b.volume()),
                };
                let mut data = crate::input::complex_box(seed, plan.n, b);
                let mut scratch = Vec::new();
                let t = Instant::now();
                let span = log.enter("fftkern.plan1d.execute", "fftkern", it as u64, root);
                let p = cache.plan1d(n, batch, layout, layout);
                scratch.resize(p.scratch_elems(), C64::ZERO);
                for c in 0..calls {
                    p.execute_inplace_scratch(
                        &mut data[c * call_len..(c + 1) * call_len],
                        dir,
                        &mut scratch,
                    );
                }
                log.exit(span);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                std::hint::black_box(&data);
                rank_ms += ms;
                let fl = flops(n, b.volume() / n);
                if axis == 2 {
                    t_c += ms;
                    f_c += fl;
                } else {
                    t_s += ms;
                    f_s += fl;
                }
                if it == 0 {
                    bytes += (2 * ELEM_BYTES * b.volume()) as f64;
                }
            }
            busiest = busiest.max(rank_ms);
        }
        log.exit(root);
        per_iter.push(busiest);
    }
    let gflops = |f: f64, ms: f64| if ms > 0.0 { f / (ms * 1e6) } else { 0.0 };
    KernelReplay {
        fft_ms: median(&per_iter),
        gflops_contig: gflops(f_c, t_c),
        gflops_strided: gflops(f_s, t_s),
        ops_per_byte: if bytes > 0.0 {
            (f_c + f_s) / iters as f64 / bytes
        } else {
            0.0
        },
    }
}

/// Pack/unpack replay result, per transform pair.
#[derive(Debug, Clone, Copy, Default)]
pub struct PackReplay {
    /// Busiest rank's pack time, ms.
    pub pack_ms: f64,
    /// Busiest rank's unpack time, ms.
    pub unpack_ms: f64,
    /// Pack throughput over all ranks, GB/s.
    pub pack_gbs: f64,
    /// Unpack throughput over all ranks, GB/s.
    pub unpack_gbs: f64,
}

fn local(owner: &Box3, region: &Box3) -> Subarray {
    Subarray::new(
        owner.shape(),
        region.shape(),
        [
            region.lo[0] - owner.lo[0],
            region.lo[1] - owner.lo[1],
            region.lo[2] - owner.lo[2],
        ],
    )
}

/// Replays every reshape's pack (`Subarray::pack` of each `region_to`
/// block) and unpack (`Subarray::unpack` of each received region) on each
/// of `ranks`.
pub fn pack_replay(
    plans: &[&FftPlan],
    ranks: &[usize],
    iters: usize,
    seed: u64,
    log: &mut SpanLog,
) -> PackReplay {
    let reshapes = pair_reshapes(plans);
    let (mut pack_iters, mut unpack_iters) = (Vec::new(), Vec::new());
    let (mut t_p, mut t_u, mut bytes) = (0.0, 0.0, 0.0);
    for it in 0..iters {
        let root = log.enter("replay.pack", "perfbench", it as u64, None);
        let (mut busy_p, mut busy_u) = (0.0f64, 0.0f64);
        for &r in ranks {
            let (mut rank_p, mut rank_u) = (0.0, 0.0);
            for &(plan, spec, from, to) in &reshapes {
                let (fb, tb) = (plan.dists[from].rank_box(r), plan.dists[to].rank_box(r));
                if spec.sends[r].is_empty() && spec.recvs[r].is_empty() {
                    continue;
                }
                let src = crate::input::complex_box(seed, plan.n, fb);
                let mut dst = vec![C64::ZERO; tb.volume()];
                let types: Vec<Subarray> = spec.sends[r]
                    .iter()
                    .map(|(s, _)| local(fb, spec.region_to(r, *s).expect("send region")))
                    .collect();
                let t = Instant::now();
                let span = log.enter("mpisim.subarray.pack", "mpisim", it as u64, root);
                let blocks: Vec<Vec<C64>> = types.iter().map(|ty| ty.pack(&src)).collect();
                log.exit(span);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                rank_p += ms;
                t_p += ms;
                let recv_types: Vec<(Subarray, Vec<C64>)> = spec.recvs[r]
                    .iter()
                    .map(|(_, region)| (local(tb, region), vec![C64::ZERO; region.volume()]))
                    .collect();
                let t = Instant::now();
                let span = log.enter("mpisim.subarray.unpack", "mpisim", it as u64, root);
                for (ty, block) in &recv_types {
                    ty.unpack(block, &mut dst);
                }
                log.exit(span);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                rank_u += ms;
                t_u += ms;
                std::hint::black_box((&blocks, &dst));
                if it == 0 {
                    bytes += (ELEM_BYTES * blocks.iter().map(Vec::len).sum::<usize>()) as f64;
                }
            }
            busy_p = busy_p.max(rank_p);
            busy_u = busy_u.max(rank_u);
        }
        log.exit(root);
        pack_iters.push(busy_p);
        unpack_iters.push(busy_u);
    }
    let gbs = |ms: f64| {
        if ms > 0.0 {
            bytes * iters as f64 / (ms * 1e6)
        } else {
            0.0
        }
    };
    PackReplay {
        pack_ms: median(&pack_iters),
        unpack_ms: median(&unpack_iters),
        pack_gbs: gbs(t_p),
        unpack_gbs: gbs(t_u),
    }
}

/// Transport replay result, per transform pair.
#[derive(Debug, Clone, Copy, Default)]
pub struct TransportReplay {
    /// Summed slowest-rank `alltoallv` time with the plan's payloads, ms.
    pub full_ms: f64,
    /// The same with empty payloads (every pair still posted), ms.
    pub empty_ms: f64,
    /// Summed (slowest − fastest rank) call time with payloads, ms.
    pub wait_ms: f64,
}

/// Replays every reshape's exchange through `coll::alltoallv` on a fresh
/// `World` of the plans' rank count, once with the plan's
/// `group_byte_matrix` payloads and once with empty payloads. Ranks align
/// on a host barrier before each call, so the spread between them is the
/// collective's own waiting.
pub fn transport_replay(
    plans: &[&FftPlan],
    machine: &MachineSpec,
    iters: usize,
    epoch: Instant,
) -> (TransportReplay, SpanLog) {
    let nranks = plans[0].nranks;
    let reshapes = pair_reshapes(plans);
    let world = World::new(machine.clone(), nranks, WorldOpts::default());
    let barrier = Barrier::new(nranks);
    // Per rank: [iter][payload mode][call] host ms, plus the rank's spans.
    let per_rank: Vec<(Vec<[Vec<f64>; 2]>, SpanLog)> = world.run(|rank| {
        let me = rank.rank();
        let mut log = SpanLog::new(epoch, Some(me), true);
        let comm = Comm::world(rank);
        let subs: Vec<Option<Comm>> = reshapes
            .iter()
            .map(|(_, spec, _, _)| {
                let color = spec.group_of[me].map_or(u64::MAX, |g| g as u64);
                let sub = comm.split(rank, color, me as u64);
                spec.group_of[me].map(|_| sub)
            })
            .collect();
        let mut phase_id = 0u64;
        let mut out = Vec::with_capacity(iters);
        for it in 0..iters {
            let root = log.enter("replay.transport", "perfbench", it as u64, None);
            let mut modes: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
            for (mode, times) in modes.iter_mut().enumerate() {
                for ((plan, spec, _, _), sub) in reshapes.iter().zip(&subs) {
                    barrier.wait();
                    let Some(sub) = sub else {
                        times.push(0.0);
                        continue;
                    };
                    let sends: Vec<Vec<C64>> = sub
                        .members()
                        .iter()
                        .map(|&m| match mode {
                            0 => vec![C64::ZERO; spec.bytes(me, m) / ELEM_BYTES],
                            _ => Vec::new(),
                        })
                        .collect();
                    let env = PhaseEnv {
                        gpu_aware: rank.world().opts().gpu_aware,
                        flows_per_nic: machine.gpus_per_node.min(plan.nranks),
                        nodes: machine.nodes_for(plan.nranks),
                        p2p_peers: spec.peer_count(me).max(1),
                        phase_id,
                    };
                    phase_id += 1;
                    let t = Instant::now();
                    let span = log.enter("mpisim.coll.alltoallv", "mpisim", it as u64, root);
                    let recvd = coll::alltoallv(rank, sub, env, sends);
                    log.exit(span);
                    times.push(t.elapsed().as_secs_f64() * 1e3);
                    std::hint::black_box(recvd);
                }
            }
            log.exit(root);
            out.push(modes);
        }
        (out, log)
    });
    let mut full = Vec::with_capacity(iters);
    let mut empty = Vec::with_capacity(iters);
    let mut wait = Vec::with_capacity(iters);
    for it in 0..iters {
        let calls = reshapes.len();
        let (mut f, mut e, mut w) = (0.0, 0.0, 0.0);
        for c in 0..calls {
            let col = |mode: usize| per_rank.iter().map(move |(t, _)| t[it][mode][c]);
            let max_f = col(0).fold(0.0, f64::max);
            let min_f = col(0).fold(f64::INFINITY, f64::min);
            f += max_f;
            w += max_f - min_f;
            e += col(1).fold(0.0, f64::max);
        }
        full.push(f);
        empty.push(e);
        wait.push(w);
    }
    let mut log = SpanLog::new(epoch, None, true);
    for (_, l) in per_rank {
        log.absorb(l);
    }
    (
        TransportReplay {
            full_ms: median(&full),
            empty_ms: median(&empty),
            wait_ms: median(&wait),
        },
        log,
    )
}

/// Walker replay result, per transform pair.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalkerReplay {
    /// Un-memoised `alltoallv_exit_times` over every reshape group, ms.
    pub cold_ms: f64,
    /// The same against a warmed schedule memo (what a steady-state dry
    /// run pays per call), ms.
    pub memo_ms: f64,
    /// Sender-receiver pairs walked.
    pub pairs: u64,
}

/// Replays the `alltoallv` exit-time walker over every reshape group of a
/// transform pair, with synchronized entries and the dry run's phase
/// environment.
pub fn walker_replay(
    plans: &[&FftPlan],
    machine: &MachineSpec,
    iters: usize,
    log: &mut SpanLog,
) -> WalkerReplay {
    let reshapes = pair_reshapes(plans);
    let memo = SchedMemo::default();
    let mut pairs = 0u64;
    let mut walk = |np: &NetParams, it: usize, name: &'static str| -> f64 {
        let root = log.enter(name, "perfbench", it as u64, None);
        let t = Instant::now();
        for (plan, spec, _, _) in &reshapes {
            let env = PhaseEnv {
                gpu_aware: true,
                flows_per_nic: machine.gpus_per_node.min(plan.nranks),
                nodes: machine.nodes_for(plan.nranks),
                p2p_peers: 1,
                phase_id: 0,
            };
            for g in &spec.groups {
                let matrix = spec.group_byte_matrix(g);
                let entries = vec![SimTime::ZERO; g.len()];
                let span = log.enter(
                    "mpisim.coll.alltoallv_exit_times",
                    "mpisim",
                    it as u64,
                    root,
                );
                std::hint::black_box(coll::alltoallv_exit_times(np, &env, g, &entries, &matrix));
                log.exit(span);
                if it == 0 && np.memo.is_none() {
                    pairs += (g.len() * g.len()) as u64;
                }
            }
        }
        log.exit(root);
        t.elapsed().as_secs_f64() * 1e3
    };
    let cold = NetParams::exact(machine);
    let cold_ms: Vec<f64> = (0..iters)
        .map(|it| walk(&cold, it, "replay.walker"))
        .collect();
    let warm = NetParams {
        memo: Some(&memo),
        ..NetParams::exact(machine)
    };
    walk(&warm, 0, "replay.walker.memo_fill");
    let memo_ms: Vec<f64> = (0..iters.max(3))
        .map(|it| walk(&warm, it, "replay.walker.memo"))
        .collect();
    WalkerReplay {
        cold_ms: median(&cold_ms),
        memo_ms: median(&memo_ms),
        pairs,
    }
}

/// Median host time of `World::new` plus `World::run` of an empty rank
/// program, ms.
pub fn spawn_replay(machine: &MachineSpec, nranks: usize, iters: usize, log: &mut SpanLog) -> f64 {
    let times: Vec<f64> = (0..iters)
        .map(|it| {
            let t = Instant::now();
            log.time("mpisim.world.run", "mpisim", it as u64, None, || {
                World::new(machine.clone(), nranks, WorldOpts::default()).run(|_| ());
            });
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}
