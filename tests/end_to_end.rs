//! End-to-end integration tests spanning every crate: datasets → compressors
//! → queries, exercising the full public API the way the benchmark harness
//! and a downstream user would.

use neats::core::{Kind, NeaTS, NeaTSCompressor, RankMode};
use neats::lossless::paper_competitors;
use neats::lossy::{AdaptiveApprox, Pla};
use neats::timeseries::{AnyCompressor, CompressedSeries, Dataset, TimeSeries};

/// All 13 lossless compressors (paper competitors + NeaTS variants).
fn full_roster() -> Vec<Box<dyn AnyCompressor>> {
    let mut v = paper_competitors();
    v.push(Box::new(NeaTSCompressor::neats()));
    v.push(Box::new(NeaTSCompressor::leats()));
    v.push(Box::new(NeaTSCompressor::sneats()));
    v
}

#[test]
fn every_compressor_roundtrips_every_dataset() {
    for ds in Dataset::ALL {
        let ts = ds.generate(3000);
        for comp in full_roster() {
            let c = comp.compress_boxed(&ts);
            assert_eq!(c.decompress(), ts.values(), "{} on {}", comp.name(), ds.abbrev());
        }
    }
}

#[test]
fn random_access_agrees_with_decompression_everywhere() {
    let ts = Dataset::Ecg.generate(5000);
    for comp in full_roster() {
        let c = comp.compress_boxed(&ts);
        let dec = c.decompress();
        for k in (0..ts.len()).step_by(97) {
            assert_eq!(c.get(k), dec[k], "{} get({k})", comp.name());
        }
    }
}

#[test]
fn range_queries_agree_across_all_engines() {
    let ts = Dataset::WindDirection.generate(4000);
    let compressed: Vec<_> = full_roster().iter().map(|c| c.compress_boxed(&ts)).collect();
    for (start, len) in [(0usize, 100usize), (999, 2), (1500, 1000), (3999, 1), (0, 4000)] {
        let expected = &ts.values()[start..start + len];
        for c in &compressed {
            let mut out = Vec::new();
            c.scan_range(start, len, &mut out);
            assert_eq!(out, expected, "range ({start}, {len})");
        }
    }
}

#[test]
fn neats_dominates_xor_family_on_smooth_data() {
    // The paper's headline: learned nonlinear models beat XOR codecs on
    // smooth series by a wide margin.
    let ts = Dataset::AirPressure.generate(20_000);
    let neats = NeaTS::compress(&ts).size_in_bytes();
    for comp in paper_competitors() {
        if ["Gorilla", "Chimp"].contains(&comp.name()) {
            let other = comp.compress_boxed(&ts).size_in_bytes();
            assert!(
                (neats as f64) < 0.5 * other as f64,
                "NeaTS {neats} not ≪ {} {other}",
                comp.name()
            );
        }
    }
}

#[test]
fn lossy_pipeline_matches_lossless_values_within_eps() {
    let ts = Dataset::CityTemp.generate(8000);
    let eps = (ts.delta() / 200).max(1);
    let neats_l = NeaTS::builder().build_lossy(&ts, eps);
    let pla = Pla::compress(&ts, eps);
    let aa = AdaptiveApprox::compress(&ts, eps);
    assert!(neats_l.max_error(&ts) <= eps + 1);
    assert!(pla.max_error(&ts) <= eps + 1);
    assert!(aa.max_error(&ts) <= eps + 1);
    // Table II headline: NeaTS-L at least matches PLA and AA in size.
    assert!(
        neats_l.size_in_bytes() <= pla.size_in_bytes(),
        "NeaTS-L {} > PLA {}",
        neats_l.size_in_bytes(),
        pla.size_in_bytes()
    );
    assert!(
        neats_l.size_in_bytes() <= aa.size_in_bytes(),
        "NeaTS-L {} > AA {}",
        neats_l.size_in_bytes(),
        aa.size_in_bytes()
    );
}

#[test]
fn rank_modes_agree() {
    let ts = Dataset::Pm10Dust.generate(5000);
    let ef = NeaTS::builder().rank_mode(RankMode::EliasFano).build(&ts);
    let bv = NeaTS::builder().rank_mode(RankMode::BitVector).build(&ts);
    for k in (0..ts.len()).step_by(53) {
        assert_eq!(ef.get(k), bv.get(k));
    }
    assert_eq!(ef.decompress(), bv.decompress());
}

#[test]
fn compressor_trait_objects_compose() {
    // A downstream user can hold a heterogeneous engine list and pick the
    // best per series — the "compression advisor" pattern.
    let ts = Dataset::BaselWind.generate(4000);
    let best = full_roster()
        .iter()
        .map(|c| (c.name(), c.compress_boxed(&ts).size_in_bytes()))
        .min_by_key(|&(_, s)| s)
        .expect("non-empty roster");
    assert!(best.1 > 0);
}

#[test]
fn real_file_loading_pipeline() {
    // io::load → compress → query, as a user with on-disk data would.
    let dir = std::env::temp_dir().join("neats_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("data.txt");
    let content: String =
        (0..500).map(|k| format!("{:.2}\n", 20.0 + (k as f64 / 30.0).sin() * 5.0)).collect();
    std::fs::write(&path, content).unwrap();
    let ts = neats::timeseries::io::load_fixed_precision(&path, 2).unwrap();
    assert_eq!(ts.len(), 500);
    let c = NeaTS::compress(&ts);
    assert_eq!(c.decompress(), ts.values());
}

#[test]
fn sorted_integer_data_as_learned_index_substrate() {
    // The paper's future-work ties NeaTS to learned data structures: sorted
    // keys compress extremely well with few fragments.
    let keys: Vec<i64> = (0..50_000).map(|k| 3 * k + (k % 7)).collect();
    let ts = TimeSeries::from_values(keys);
    let c = NeaTS::builder().kinds(&[Kind::Linear]).build(&ts);
    assert!(c.view().fragment_count() < 50, "too many fragments: {}", c.view().fragment_count());
    let ratio = c.size_in_bytes() as f64 / ts.uncompressed_bytes() as f64;
    assert!(ratio < 0.10, "ratio {ratio}");
}
