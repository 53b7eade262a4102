//! Backward compatibility of the v1/v2 matrix wire formats and of the
//! v3 plan container, pinned against golden byte files committed under
//! `tests/golden/`. The golden files were produced by this same test with
//! `SPASM_REGEN_GOLDEN=1` and must never be regenerated casually: any
//! byte-level change to the serializer that breaks these pins breaks
//! every plan already at rest in a store, so a v3 layout change shows
//! up here as a deliberate update of `compat_v3.bin`.
//!
//! Registered in `crates/store` (`[[test]] name = "wire_compat"`).

use std::path::PathBuf;

use spasm::{IntegrityPolicy, Parallelism, Pipeline, PipelineOptions, Prepared};
use spasm_format::{is_v3, SpasmMatrix, WireError};
use spasm_hw::HwConfig;
use spasm_patterns::TemplateSet;
use spasm_sparse::Coo;
use spasm_store::{save_v3, FrozenPlan, PlanBuffer};

/// The fixed matrix behind the golden streams. Hand-rolled triplets, not
/// a workload generator, so generator tweaks can never shift the pin.
fn golden_matrix() -> Coo {
    let n = 96u32;
    let mut t = Vec::new();
    for i in 0..n {
        t.push((i, i, 2.0));
        t.push((i, (i * 37 + 11) % n, ((i % 7) + 1) as f32 * 0.25));
        t.push(((i * 53 + 5) % n, i, -0.5));
    }
    Coo::from_triplets(n, n, t).expect("valid triplets")
}

/// [`golden_matrix`] prepared by a fully pinned pipeline (fixed
/// portfolio, fixed schedule, serial) so the encoding and the plan are
/// deterministic across feature matrices and host thread counts.
fn golden_prepared() -> Prepared {
    Pipeline::with_options(
        PipelineOptions::default()
            .fixed_portfolio(TemplateSet::table_v_set(0))
            .fixed_schedule(256, HwConfig::spasm_4_1())
            .parallelism(Parallelism::Serial),
    )
    .prepare(&golden_matrix())
    .expect("pipeline prepare")
}

/// The encoded form of [`golden_matrix`].
fn golden_encoded() -> SpasmMatrix {
    golden_prepared().encoded
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden")).join(name)
}

fn load_golden(name: &str) -> Vec<u8> {
    let path = golden_path(name);
    std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden stream {} ({e}); regenerate with \
             SPASM_REGEN_GOLDEN=1 cargo test -p spasm-store --test wire_compat",
            path.display()
        )
    })
}

/// With `SPASM_REGEN_GOLDEN=1`, (re)writes the golden files and returns
/// true; the pinned assertions are skipped for that run.
fn maybe_regen() -> bool {
    if std::env::var_os("SPASM_REGEN_GOLDEN").is_none() {
        return false;
    }
    let p = golden_prepared();
    let m = &p.encoded;
    std::fs::create_dir_all(golden_path("")).expect("mkdir tests/golden");
    std::fs::write(golden_path("compat_v1.bin"), m.to_bytes_v1()).expect("write v1");
    std::fs::write(golden_path("compat_v2.bin"), m.to_bytes()).expect("write v2");
    let v3 = save_v3(m, &p.plan).expect("save_v3");
    std::fs::write(golden_path("compat_v3.bin"), v3).expect("write v3");
    true
}

#[test]
fn golden_v1_stream_still_decodes() {
    if maybe_regen() {
        return;
    }
    let bytes = load_golden("compat_v1.bin");
    assert_eq!(
        u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]),
        1
    );
    let decoded = SpasmMatrix::from_bytes(&bytes).expect("v1 decode");
    assert_eq!(decoded.to_coo(), golden_matrix());
    // The current legacy serializer still emits the identical stream.
    assert_eq!(golden_encoded().to_bytes_v1().as_ref(), &bytes[..]);
}

#[test]
fn golden_v2_stream_still_decodes_and_serializer_is_stable() {
    if maybe_regen() {
        return;
    }
    let bytes = load_golden("compat_v2.bin");
    assert_eq!(
        u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]),
        2
    );
    let decoded = SpasmMatrix::from_bytes(&bytes).expect("v2 decode");
    assert_eq!(decoded.to_coo(), golden_matrix());

    // Byte-for-byte serializer stability: plans at rest stay readable
    // *and* freshly written streams keep hitting the same fingerprints.
    let now = golden_encoded();
    assert_eq!(now.to_bytes().as_ref(), &bytes[..]);
    assert_eq!(now.fingerprint().token(), decoded.fingerprint().token());
}

#[test]
fn golden_v3_file_thaws_and_writer_is_stable() {
    if maybe_regen() {
        return;
    }
    let bytes = load_golden("compat_v3.bin");
    assert!(is_v3(&bytes));
    let frozen = FrozenPlan::open(PlanBuffer::from_bytes(&bytes)).expect("v3 open");
    let (encoded, plan) = frozen.thaw().expect("v3 thaw");
    let mut fresh = golden_prepared();
    assert_eq!(encoded.to_bytes(), fresh.encoded.to_bytes());
    assert_eq!(encoded.to_coo(), golden_matrix());

    // The thawed plan answers as the fresh one does, bit for bit.
    let mut thawed = Prepared::restore(encoded, plan, Parallelism::Serial, IntegrityPolicy::off())
        .expect("restore");
    let x: Vec<f32> = (0..96).map(|i| (i % 11) as f32 * 0.5 - 2.0).collect();
    let (mut want, mut got) = (vec![0.0f32; 96], vec![0.0f32; 96]);
    fresh.execute(&x, &mut want).expect("fresh execute");
    thawed.execute(&x, &mut got).expect("thawed execute");
    assert_eq!(
        got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );

    // Byte-for-byte writer stability.
    let now = save_v3(&fresh.encoded, &fresh.plan).expect("save_v3");
    assert_eq!(now, bytes);
}

#[test]
fn legacy_streams_are_not_mistaken_for_v3() {
    if maybe_regen() {
        return;
    }
    for name in ["compat_v1.bin", "compat_v2.bin"] {
        let bytes = load_golden(name);
        assert!(!is_v3(&bytes), "{name} misdetected as a v3 container");
        // And the v3 reader refuses them with a typed error, not a panic.
        match FrozenPlan::open(PlanBuffer::from_bytes(&bytes)) {
            Err(e) => {
                let msg = e.to_string();
                assert!(!msg.is_empty());
            }
            Ok(_) => panic!("{name} parsed as a v3 container"),
        }
    }
}

#[test]
fn corrupted_legacy_streams_are_rejected() {
    if maybe_regen() {
        return;
    }
    // v2 carries a trailing CRC: any single-bit flip is a typed error.
    let bytes = load_golden("compat_v2.bin");
    for off in (8..bytes.len()).step_by(13) {
        let mut evil = bytes.clone();
        evil[off] ^= 0x10;
        match SpasmMatrix::from_bytes(&evil) {
            Err(
                WireError::ChecksumMismatch { .. }
                | WireError::Inconsistent(_)
                | WireError::Truncated { .. }
                | WireError::BadMagic
                | WireError::BadVersion(_),
            ) => {}
            Err(other) => panic!("unexpected error class for flip at {off}: {other}"),
            Ok(_) => panic!("bit flip at {off} survived the v2 checksum"),
        }
    }
}
