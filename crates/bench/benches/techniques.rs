//! Micro-benchmarks of the equivalent-waveform techniques (Section 4.2's
//! measurement, statistically sampled).
//!
//! Run with `cargo bench -p nsta-bench --bench techniques`.

use nsta_bench::microbench::bench;
use nsta_waveform::{SaturatedRamp, Thresholds};
use sgdp::gate::{AnalyticInverterGate, GateModel};
use sgdp::{MethodKind, PropagationContext};

/// A representative noisy context built once (analytic gate keeps the
/// setup deterministic; the timed region is exactly the reduction step).
fn make_context() -> PropagationContext {
    let th = Thresholds::cmos(1.2);
    let gate = AnalyticInverterGate::fast(th);
    let clean = SaturatedRamp::with_slew(1.0e-9, 150e-12, th, true).expect("ramp");
    let clean_wave = clean.to_waveform(0.0, 3.0e-9, 1e-12).expect("waveform");
    let noisy = clean_wave
        .with_triangular_pulse(1.05e-9, 150e-12, -0.45)
        .expect("glitch")
        .with_triangular_pulse(1.35e-9, 120e-12, -0.25)
        .expect("second glitch");
    let out = gate.response(&clean_wave).expect("noiseless output");
    PropagationContext::new(clean_wave, noisy, Some(out), th).expect("context")
}

fn bench_methods(ctx: &PropagationContext) {
    for method in MethodKind::all() {
        // Validate once so failures surface as panics, not timing noise.
        method
            .equivalent(ctx)
            .expect("technique succeeds on the benchmark case");
        bench(&format!("techniques/{}", method.name()), || {
            method.equivalent(ctx).expect("ok")
        });
    }
}

/// SGDP as a pipeline runs it per noisy input: a fresh context, ρ, then
/// the fit. The other cases reuse one context and so its cached ρ. This
/// one also clones the three input waveforms the context takes by value.
fn bench_sgdp_fresh_context(base: &PropagationContext) {
    let output = base.noiseless_output().expect("noiseless output");
    bench("techniques/SGDP_fresh_context", || {
        let ctx = PropagationContext::new(
            base.noiseless_input().clone(),
            base.noisy_input().clone(),
            Some(output.clone()),
            base.thresholds(),
        )
        .expect("context");
        ctx.sensitivity().expect("sensitivity");
        MethodKind::Sgdp.equivalent(&ctx).expect("ok")
    });
}

fn bench_sgdp_sampling(base: &PropagationContext) {
    for p in [9usize, 17, 35, 70, 140] {
        let ctx = base.clone().with_samples(p).expect("valid P");
        bench(&format!("sgdp_sampling/{p}"), || {
            MethodKind::Sgdp.equivalent(&ctx).expect("ok")
        });
    }
}

fn main() {
    let ctx = make_context();
    bench_methods(&ctx);
    bench_sgdp_fresh_context(&ctx);
    bench_sgdp_sampling(&ctx);
}
