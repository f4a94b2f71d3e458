//! Golden frames: `to_bytes()` is pinned, per input, to the bytes the
//! encoder produced when this table was generated — (length, CRC-64/XZ) for
//! the 16 evaluation datasets at n = 4096 under five configurations. A
//! refactor of the encoder or of the handle that holds its output must not
//! move a single byte; a deliberate format change regenerates the table
//! (the failure message prints it in source form) and bumps the frame
//! version.

use neats_core::{NeaTS, RankMode};
use succinct::crc64;
use timeseries::Dataset;

const N: usize = 4096;

/// Column order of [`GOLDEN`].
const CONFIGS: [&str; 5] = ["NeaTS", "LeaTS", "SNeaTS", "NeaTS/BitVector", "NeaTS-L eps=delta/200"];

/// `(frame length, CRC-64 of the frame)` per dataset (Table III order) and
/// configuration (see [`CONFIGS`]).
#[rustfmt::skip]
const GOLDEN: &[(&str, [(usize, u64); 5])] = &[
    ("IT", [(4850, 0x0c1b25558cf04316), (4833, 0xc1627cba040a0a7f), (4945, 0x4efed5f17c27dae5), (5480, 0x2db779bdca5a1840), (11257, 0xaa41c6a07b44d72e)]),
    ("US", [(5021, 0x8e053e04d2e3bdc8), (4937, 0x46e9e69c72a204ab), (5001, 0xedba5d2f72b5de3c), (5651, 0x7dc28ec31ce19f30), (19135, 0x13e19c265d98b073)]),
    ("ECG", [(5946, 0x16ad8f89a9d29201), (5931, 0xa5fcf49a1943f5c2), (5942, 0x242ee67590a7d6d8), (6534, 0x62ada37298962804), (7601, 0x466223f0f3934635)]),
    ("WD", [(7855, 0x984a536318f421f7), (7723, 0xf25333a0d90143ac), (7725, 0xdaf54ba28b50680d), (8477, 0xc06e08411aebeb64), (14605, 0xa0707a11131fd821)]),
    ("AP", [(6233, 0xabe13f6a89e9798e), (6775, 0xa3bdeb5eeb96b4ba), (6233, 0xeb7f5f63a0796743), (6855, 0x9ee7b335ded9f4b2), (838, 0x7582e940bb45a98b)]),
    ("UK", [(2886, 0x9c5e203d52ebc9c6), (2801, 0x80368e09bc819edc), (2898, 0xa82f53e0db6ec522), (3516, 0x3f81b60be8ae386c), (18606, 0x41daa28c7c20398f)]),
    ("GE", [(6501, 0xbcf06be5c8db25ab), (6441, 0xbbebe88581ac2355), (6531, 0xacb0fd0fa5138b23), (7123, 0x3d345ac8e745b6f2), (8615, 0xec8d379236145c2c)]),
    ("LAT", [(2077, 0x94edc221e87b39de), (2009, 0x6d5c9369338cc7b6), (2010, 0x0cb36b641a060c96), (2707, 0x614898b68c69d12d), (6179, 0x5e59c25260101e47)]),
    ("LON", [(2058, 0x4a44914c6fa16bbf), (2081, 0x2c88db2bed403aee), (2081, 0x2c88db2bed403aee), (2696, 0x0883e342ee4feb12), (4355, 0xc2d1a86c3218ebe9)]),
    ("DP", [(6102, 0x4f7082933dbaa68d), (6065, 0x3c283da1d2e87dde), (5865, 0xe3a797b1b241eef8), (6732, 0x7ea12eff86c5b239), (6969, 0xddb9d7365122f972)]),
    ("CT", [(5294, 0xba0a0532185c8495), (5169, 0x35989115f7c5cfd1), (5154, 0x88a69aa03e6000d9), (5916, 0x7edc4398e3e5fcba), (28557, 0xc76d9587a197db27)]),
    ("DU", [(8350, 0xa6b66735ffd0bf50), (8249, 0xcc1d68f4c1d717b9), (8386, 0xa011406daeb1ab4e), (8980, 0xaf2a2721b27de1a7), (16515, 0x7faa75bcf9db073c)]),
    ("BT", [(18561, 0xc0ff6e8f365aa571), (18489, 0x54a01372879db58b), (18489, 0x54a01372879db58b), (19207, 0x65ea331e20a8a9a1), (17627, 0xb92d42f8bfed3b09)]),
    ("BW", [(14473, 0x2e5c7f50e252a491), (14473, 0x2e5c7f50e252a491), (14457, 0x4fb3f2bd651063c6), (15111, 0xa88643dce3d22d25), (28093, 0xecd658e1756f0324)]),
    ("BM", [(6500, 0x06d94584fdc94815), (8109, 0x047271c7429928d7), (6733, 0x76db55f3c4def0c9), (7114, 0x8a0b3b21852a1aca), (831, 0x56266201cfff7f09)]),
    ("BP", [(14242, 0x2d23751558cbc4e4), (14225, 0x19999ba2d4093a4a), (14533, 0x770e75ed4180ece4), (14872, 0x0c2854c3930c14ea), (9693, 0x9969dd1a5fe2ea42)]),
];

fn frames(ds: Dataset) -> [Vec<u8>; 5] {
    let ts = ds.generate(N);
    let one = || NeaTS::builder().threads(1);
    [
        one().build(&ts).to_bytes(),
        NeaTS::leats().threads(1).build(&ts).to_bytes(),
        NeaTS::sneats().threads(1).build(&ts).to_bytes(),
        one().rank_mode(RankMode::BitVector).build(&ts).to_bytes(),
        one().build_lossy(&ts, ts.delta() / 200).to_bytes(),
    ]
}

#[test]
fn frames_are_byte_identical_to_the_golden_table() {
    let actual: Vec<(&str, [(usize, u64); 5])> = Dataset::ALL
        .iter()
        .map(|&ds| (ds.abbrev(), frames(ds).map(|bytes| (bytes.len(), crc64(&bytes)))))
        .collect();
    let mut source = String::new();
    for (name, row) in &actual {
        let cells: Vec<String> = row.iter().map(|(len, crc)| format!("({len}, {crc:#018x})")).collect();
        source.push_str(&format!("    ({name:?}, [{}]),\n", cells.join(", ")));
    }
    for ((name, row), (want_name, want_row)) in actual.iter().zip(GOLDEN) {
        assert_eq!(name, want_name, "dataset order changed; actual table:\n{source}");
        for ((got, want), config) in row.iter().zip(want_row).zip(CONFIGS) {
            assert_eq!(got, want, "{name} × {config}: frame bytes moved; actual table:\n{source}");
        }
    }
    assert_eq!(actual.len(), GOLDEN.len(), "actual table:\n{source}");
}
