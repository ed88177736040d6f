//! Criterion wrapper around a miniature end-to-end scenario: measures the
//! wall-clock cost of simulating one DAPES trial and one trial of each
//! baseline, so regressions in the protocol or simulator hot paths surface
//! in CI. (The *paper figures* are produced by the `all` binary, not by
//! this bench.)

use criterion::{criterion_group, criterion_main, Criterion};
use dapes_bench::{run_trial, Protocol, ScenarioParams};
use dapes_netsim::time::SimTime;

fn tiny() -> ScenarioParams {
    ScenarioParams {
        range: 80.0,
        n_files: 1,
        file_size: 8 * 1024,
        packet_size: 1024,
        seed: 9,
        max_sim: SimTime::from_secs(400),
        stationary: 2,
        mobile_downloaders: 3,
        intermediates: 1,
        pure_forwarders: 1,
    }
}

fn bench_trials(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2e_trial");
    group.sample_size(10);
    group.bench_function("dapes_tiny_swarm", |b| {
        b.iter(|| run_trial(&Protocol::Dapes(Box::default()), &tiny()))
    });
    group.bench_function("bithoc_tiny_swarm", |b| {
        b.iter(|| run_trial(&Protocol::Bithoc, &tiny()))
    });
    group.bench_function("ekta_tiny_swarm", |b| {
        b.iter(|| run_trial(&Protocol::Ekta, &tiny()))
    });
    group.finish();
}

criterion_group!(benches, bench_trials);
criterion_main!(benches);
