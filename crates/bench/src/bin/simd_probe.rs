//! Feature-detection smoke: prints what the SIMD dispatcher sees and which
//! tier each engine path would run, then proves the dispatch is live by
//! transforming once per available tier and cross-checking bit-identity —
//! for a power-of-two plan (512×4) and a smooth one (96×4, radix-3 stage).
//!
//! Usage: `cargo run -q -p fft-bench --bin simd_probe`. Exits non-zero if
//! any available tier's output diverges from scalar — a one-second version
//! of the full `simd_equivalence` suite, cheap enough for every CI run.
//! Respects `FFT_SIMD`, so CI can probe each setting's resolved tier.

use fftkern::plan::{Layout, Plan1d};
use fftkern::simd::{self, SimdTier};
use fftkern::{Direction, C64};

fn main() {
    println!("cpu features : {}", simd::detected_features());
    println!("detected tier: {}", simd::detected_tier().name());
    println!(
        "FFT_SIMD     : {}",
        fftobs::env::raw_var("FFT_SIMD").unwrap_or_else(|| "(unset)".into())
    );
    println!("active tier  : {}", simd::active_tier().name());

    // A power of two (radix-8 stages only) and a smooth length whose last
    // stage is the vector radix-3 kernel (96 = 8·4·3).
    let mut ok = true;
    for n in [512usize, 96] {
        ok &= probe_plan(n, 4);
    }
    if !ok {
        eprintln!("FAIL: SIMD tier output diverges from scalar");
        std::process::exit(1);
    }
}

/// Prints the kernel a `n × batch` plan dispatches to and cross-checks every
/// available tier against scalar; true when all are bit-identical.
fn probe_plan(n: usize, batch: usize) -> bool {
    let plan = Plan1d::with_layout(n, batch, Layout::contiguous(n), Layout::contiguous(n));
    println!("kernel ({n}×{batch}): {}", plan.kernel_desc());

    let x: Vec<C64> = (0..plan.required_input_len())
        .map(|i| C64::new((0.3 * i as f64).sin(), (0.7 * i as f64).cos()))
        .collect();
    let run = |tier: SimdTier| {
        simd::force_tier(Some(tier));
        let mut d = x.clone();
        plan.execute_inplace(&mut d, Direction::Forward);
        simd::force_tier(None);
        d
    };
    let reference = run(SimdTier::Scalar);
    let mut ok = true;
    for tier in [SimdTier::Avx2, SimdTier::Avx512] {
        if !simd::tier_available(tier) {
            println!("  tier {:<7}: not available on this host", tier.name());
            continue;
        }
        let got = run(tier);
        let identical = got
            .iter()
            .zip(&reference)
            .all(|(a, b)| a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits());
        println!(
            "  tier {:<7}: {}",
            tier.name(),
            if identical {
                "bit-identical to scalar"
            } else {
                "DIVERGES from scalar"
            }
        );
        ok &= identical;
    }
    ok
}
