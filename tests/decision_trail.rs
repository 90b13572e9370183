//! Golden decision trail: pinned checksums of whole SmartFlux runs.
//!
//! The other suites compare two runs of the same code against each other,
//! so a change that shifts every run the same way passes them. These two
//! checksums were computed once and pinned; any change to trigger
//! decisions, store bytes or the logical clock makes them fail.
//!
//! - LRB through `SmartFluxSession::run_wave`: every `WaveOutcome` plus the
//!   final `export_state()` (cell timestamps and clock included).
//! - AQHI through `SmartFluxSession::run_wave_parallel`: every
//!   `WaveOutcome` plus the final container values and clock. Cell
//!   timestamps are left out because sibling steps of a level interleave
//!   their writes differently from run to run.
//!
//! Both runs train, apply the model and retrain once, on small pinned
//! configurations that finish in a few seconds in a debug build.

use smartflux::eval::WorkloadFactory;
use smartflux::{EngineConfig, ModelKind, SmartFluxSession};
use smartflux_datastore::{ContainerRef, DataStore};
use smartflux_workloads::aqhi::{AqhiConfig, AqhiFactory};
use smartflux_workloads::lrb::{LrbConfig, LrbFactory};

/// Waves per run: 60 training waves, 60 application waves, a 60-wave
/// retraining cycle, then 20 application waves on the second model.
const WAVES: u64 = 200;

/// Checksum of the LRB trail (see [`lrb_trail`]).
const LRB_TRAIL: u64 = 2_823_613_299_396_993_976;

/// Checksum of the AQHI trail (see [`aqhi_trail`]).
const AQHI_TRAIL: u64 = 15_522_780_226_099_680_221;

/// 64-bit FNV-1a over the `Debug` rendering of every part, each followed
/// by a separator byte. `Debug` prints `f64` in its shortest round-trip
/// form, so equal renderings mean bit-equal values.
fn checksum(parts: &[String]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for part in parts {
        for b in part.bytes().chain(std::iter::once(0xFF)) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01B3);
        }
    }
    h
}

fn config() -> EngineConfig {
    EngineConfig::new()
        .with_training_waves(60)
        .with_model(ModelKind::RandomForest {
            trees: 10,
            max_depth: 8,
            threshold: 0.4,
        })
        .with_quality_gates(0.0, 0.0)
        .with_retraining_interval(60)
        .with_seed(11)
}

fn lrb_trail() -> u64 {
    let factory = LrbFactory {
        config: LrbConfig {
            xways: 2,
            segments: 10,
            vehicles: 60,
            query_slots: 6,
            bound: 0.1,
            ..LrbConfig::default()
        },
    };
    let store = DataStore::new();
    let workflow = factory.build(&store);
    let mut session = SmartFluxSession::new(workflow, store.clone(), config()).expect("session");
    let mut parts = Vec::new();
    let mut skipped = 0;
    for _ in 0..WAVES {
        let outcome = session.run_wave().expect("wave runs");
        skipped += outcome.skipped.len();
        parts.push(format!("{outcome:?}"));
    }
    assert!(skipped > 0, "the trail must include adaptive skips");
    parts.push(format!("{:?}", store.export_state()));
    checksum(&parts)
}

fn aqhi_trail() -> u64 {
    let factory = AqhiFactory {
        config: AqhiConfig {
            grid: 4,
            zone_size: 2,
            bound: 0.05,
            ..AqhiConfig::default()
        },
    };
    let store = DataStore::new();
    let workflow = factory.build(&store);
    let mut session = SmartFluxSession::new(workflow, store.clone(), config()).expect("session");
    let mut parts = Vec::new();
    let mut skipped = 0;
    for _ in 0..WAVES {
        let outcome = session.run_wave_parallel().expect("wave runs");
        skipped += outcome.skipped.len();
        parts.push(format!("{outcome:?}"));
    }
    assert!(skipped > 0, "the trail must include adaptive skips");
    let state = store.export_state();
    for table in &state.tables {
        for family in &table.families {
            let values = store
                .snapshot(&ContainerRef::family(&table.name, &family.name))
                .expect("family exists");
            parts.push(format!("{}/{}: {values:?}", table.name, family.name));
        }
    }
    parts.push(format!("clock {}", store.clock()));
    checksum(&parts)
}

#[test]
fn lrb_sequential_trail_matches_the_pinned_checksum() {
    assert_eq!(lrb_trail(), LRB_TRAIL, "LRB decisions or store bytes moved");
}

#[test]
fn aqhi_parallel_trail_matches_the_pinned_checksum() {
    assert_eq!(
        aqhi_trail(),
        AQHI_TRAIL,
        "AQHI decisions, values or clock moved"
    );
}
