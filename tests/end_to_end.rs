//! End-to-end integration tests spanning all crates: corpus generation →
//! environment construction → barrier-synchronized measurement →
//! statistics, at tiny scale.

use ksa_core::envsim::{EnvKind, EnvSpec, Machine};
use ksa_core::experiments::{self, Scale};
use ksa_core::varbench::{chrome_trace_json, run_hooked, RunConfig};
use ksa_core::KernelSurfaceArea;

#[test]
fn corpus_to_measurement_pipeline() {
    let corpus = experiments::default_corpus(Scale::Tiny);
    assert!(corpus.corpus.len() >= 10);
    assert!(corpus.stats.blocks >= 30);

    let machine = Machine {
        cores: 8,
        mem_mib: 4 * 1024,
    };
    let mut res = run_hooked(
        &RunConfig::new(EnvSpec::new(machine, EnvKind::Native), 3, 1),
        &corpus.corpus,
        |_| {},
    )
    .expect("trial failed");
    assert_eq!(res.sites.len(), corpus.corpus.total_calls());
    // Every site must have cores × iterations samples.
    for s in &res.sites {
        assert_eq!(s.samples.len(), 8 * 3);
    }
    // Latencies are plausible: nothing below the syscall entry cost,
    // nothing above a second.
    let maxes = res.per_site(None, |s| s.max());
    assert!(maxes.iter().all(|&m| (100..1_000_000_000).contains(&m)));
}

#[test]
fn isolation_bounds_the_tail() {
    // The paper's system model: the shared kernel has worse worst-case
    // behaviour than per-core VMs on the same hardware and workload.
    let corpus = experiments::default_corpus(Scale::Tiny);
    let machine = Machine {
        cores: 8,
        mem_mib: 4 * 1024,
    };
    let run_kind = |kind| {
        let mut r = run_hooked(
            &RunConfig::new(EnvSpec::new(machine, kind), 5, 3),
            &corpus.corpus,
            |_| {},
        )
        .expect("trial failed");
        let mut p99s = r.per_site(None, |s| s.p99());
        p99s.sort_unstable();
        *p99s.last().unwrap()
    };
    let native_worst = run_kind(EnvKind::Native);
    let vm_worst = run_kind(EnvKind::Vm(8));
    assert!(
        vm_worst < native_worst,
        "per-core VMs must bound the worst tail: vm {vm_worst} vs native {native_worst}"
    );
}

#[test]
fn virtualization_costs_at_the_median() {
    // ...and the flip side: the VM's bounded overhead makes the fast
    // calls slower at the median.
    let corpus = experiments::default_corpus(Scale::Tiny);
    let machine = Machine {
        cores: 8,
        mem_mib: 4 * 1024,
    };
    let run_kind = |kind| {
        let mut r = run_hooked(
            &RunConfig::new(EnvSpec::new(machine, kind), 4, 4),
            &corpus.corpus,
            |_| {},
        )
        .expect("trial failed");
        let mut meds = r.per_site(None, |s| s.median());
        meds.sort_unstable();
        meds[0] // the fastest site's median
    };
    let native_fastest = run_kind(EnvKind::Native);
    let vm_fastest = run_kind(EnvKind::Vm(8));
    assert!(
        vm_fastest > native_fastest,
        "guest fast path must pay the bounded virt overhead: {vm_fastest} vs {native_fastest}"
    );
}

#[test]
fn surface_area_api_is_consistent_with_envs() {
    let machine = Machine::epyc_64();
    let mut last = f64::INFINITY;
    for n in [1usize, 2, 4, 8, 16, 32, 64] {
        let s = KernelSurfaceArea::of(&EnvSpec::new(machine, EnvKind::Vm(n)));
        assert_eq!(s.cores, 64 / n);
        assert!(s.scalar() < last);
        last = s.scalar();
    }
}

#[test]
fn experiments_table2_runs_at_tiny_scale() {
    let corpus = experiments::default_corpus(Scale::Tiny);
    let (t2, _) = experiments::table2(&corpus.corpus, Scale::Tiny, 5, 0, false);
    // Cumulative percentages must be monotone within a row.
    for table in [&t2.median, &t2.p99, &t2.max] {
        for row in &table.rows {
            for w in row.below.windows(2) {
                assert!(w[0] <= w[1] + 1e-9, "{}: non-monotone", row.label);
            }
            assert!((row.below[4] + row.above_last - 100.0).abs() < 1e-6);
        }
    }
}

#[test]
fn experiments_fig2_trends_are_negative_where_expected() {
    use ksa_core::analysis::surface_trends;
    use ksa_core::kernel::Category;
    let corpus = experiments::default_corpus(Scale::Tiny);
    let (f2, _) = experiments::fig2(&corpus.corpus, Scale::Tiny, 5, 0, false);
    let trends = surface_trends(&f2);
    // Filesystem and permissions: the paper's two reliable responders.
    for want in [Category::Filesystem, Category::Permissions] {
        let t = trends.iter().find(|t| t.category == want).unwrap();
        if let Some(c) = t.median_corr {
            assert!(
                c < 0.25,
                "{want:?} median trend should not be clearly positive: {c}"
            );
        }
        assert!(
            t.outlier_reduction > 1.0,
            "{want:?} outliers must shrink with surface area"
        );
    }
}

/// Asserts that an experiment's `(jobs 1, metrics off)` and `(jobs 2,
/// metrics on)` runs give the same result and that only the metered run
/// carries an enabled registry.
fn assert_neutral<R: std::fmt::Debug>(
    what: &str,
    (plain, unmetered): (R, experiments::Metered),
    (wide, metered): (R, experiments::Metered),
) {
    assert_eq!(
        format!("{plain:?}"),
        format!("{wide:?}"),
        "{what}: jobs/metrics moved the result"
    );
    assert!(
        !unmetered.registry.enabled(),
        "{what}: metrics off, registry on"
    );
    assert!(
        metered.registry.enabled(),
        "{what}: metrics on, registry off"
    );
}

#[test]
fn experiments_are_neutral_to_jobs_and_metrics() {
    let corpus = experiments::default_corpus(Scale::Tiny);
    let c = &corpus.corpus;
    assert_neutral(
        "table2",
        experiments::table2(c, Scale::Tiny, 5, 1, false),
        experiments::table2(c, Scale::Tiny, 5, 2, true),
    );
    assert_neutral(
        "fig2",
        experiments::fig2(c, Scale::Tiny, 5, 1, false),
        experiments::fig2(c, Scale::Tiny, 5, 2, true),
    );
    assert_neutral(
        "table3",
        experiments::table3(c, Scale::Tiny, 5, 1, false),
        experiments::table3(c, Scale::Tiny, 5, 2, true),
    );
}

#[test]
fn chrome_trace_bytes_are_pinned() {
    // FNV-1a-64 of the Chrome trace of one Tiny-scale default-corpus run,
    // as the `Value`-tree renderer wrote it before the exporter streamed.
    let fnv1a = |bytes: &[u8]| {
        bytes.iter().fold(0xcbf29ce484222325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x100000001b3)
        })
    };
    let corpus = experiments::default_corpus(Scale::Tiny);
    for (kind, events, bytes, digest) in [
        (EnvKind::Native, 10_481, 1_194_439, 0xaaf9ffdb448277c4),
        (EnvKind::Vm(2), 11_429, 1_319_064, 0x746b5cc28880758e),
    ] {
        let cfg = RunConfig {
            trace: true,
            ..RunConfig::new(EnvSpec::new(Scale::Tiny.machine(), kind), 1, 42)
        };
        let res = run_hooked(&cfg, &corpus.corpus, |_| {}).expect("trial failed");
        let json = chrome_trace_json(&res.trace);
        assert_eq!(res.trace.total_events(), events, "{kind:?}");
        assert_eq!(json.len(), bytes, "{kind:?}");
        assert_eq!(fnv1a(json.as_bytes()), digest, "{kind:?}");
    }
}
