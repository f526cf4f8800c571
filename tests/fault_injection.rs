//! Deterministic fault-injection harness for the `.wetz` v2 container.
//!
//! Every bundled workload is traced, compressed and serialized, then
//! attacked with seeded mutations from [`wet_core::fault`]: random bit
//! flips, truncations at every section boundary, length-prefix
//! inflation, and section shuffles — well over 500 mutated images in
//! total. For each image the decoder must fail cleanly (strict read
//! errors, never panics or over-allocates) and the salvage path must
//! either recover a validated WET or report a fatal error.
//!
//! Single-section damage is additionally checked for *graceful
//! degradation*: flipping a bit inside one value section must leave
//! every other section recoverable, with the degraded queries agreeing
//! with the pristine WET on everything the surviving sequences support.

use wet::prelude::*;
use wet::workloads::Kind;
use wet_core::fault::{self, FaultRng};
use wet_core::query;
use wet_core::Wet;

const TARGET: u64 = 8_000;

fn build_wet(kind: Kind) -> Wet {
    let w = wet::workloads::build(kind, TARGET);
    let bl = BallLarus::new(&w.program);
    let mut builder = WetBuilder::new(&w.program, &bl, WetConfig::default());
    Interp::new(&w.program, &bl, InterpConfig::default())
        .run(&w.inputs, &mut builder)
        .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
    let mut wet = builder.finish();
    wet.compress();
    wet
}

fn wetz_bytes(wet: &Wet) -> Vec<u8> {
    let mut buf = Vec::new();
    wet.write_to(&mut buf).expect("serialize");
    buf
}

/// Runs every decode entry point on a mutated image. Nothing here may
/// panic; `what` names the mutation for failure messages.
fn decode_must_survive(pristine: &[u8], mutated: &[u8], what: &str, kind: Kind) {
    let strict = Wet::read_from(&mut &mutated[..]);
    if mutated != pristine {
        assert!(
            strict.is_err(),
            "{}: {what}: strict read accepted a corrupted image",
            kind.name()
        );
    }
    // fsck must always produce a report (or a clean I/O error), and a
    // changed image must never be reported clean.
    if let Ok(report) = Wet::fsck(&mut &mutated[..]) {
        if mutated != pristine {
            assert!(!report.is_clean(), "{}: {what}: fsck reported a corrupted image clean", kind.name());
        }
    }
    // Salvage either yields a WET that passes validation or errors out.
    if let Ok((wet, report)) = Wet::read_salvaging(&mut &mutated[..]) {
        wet.validate().unwrap_or_else(|e| {
            panic!("{}: {what}: salvaged WET fails validation: {e}", kind.name())
        });
        assert_eq!(
            report.seqs_lost,
            wet.unavailable_seqs(),
            "{}: {what}: salvage report disagrees with the WET",
            kind.name()
        );
    }
}

#[test]
fn seeded_mutations_never_break_the_decoder() {
    let mut total = 0u64;
    for (i, kind) in Kind::all().into_iter().enumerate() {
        let pristine = wetz_bytes(&build_wet(kind));
        let mut rng = FaultRng::new(0xC0FFEE + i as u64);

        // Truncation at (and just inside) every section boundary.
        for (what, mutated) in fault::boundary_truncations(&pristine) {
            decode_must_survive(&pristine, &mutated, &what, kind);
            total += 1;
        }
        // Seeded random single-bit flips anywhere in the image.
        for _ in 0..20 {
            let (what, mutated) = fault::bit_flip(&pristine, &mut rng);
            decode_must_survive(&pristine, &mutated, &what, kind);
            total += 1;
        }
        // Length-prefix inflation: allocation sizes are attacker
        // controlled only up to the remaining-input sanity cap.
        for _ in 0..8 {
            let (what, mutated) = fault::inflate_length(&pristine, &mut rng);
            decode_must_survive(&pristine, &mutated, &what, kind);
            total += 1;
        }
        // Section shuffles: strict order violations.
        for _ in 0..8 {
            let (what, mutated) = fault::shuffle_sections(&pristine, &mut rng);
            decode_must_survive(&pristine, &mutated, &what, kind);
            total += 1;
        }
        // Mixed mutations drawn from the whole fault menu.
        for _ in 0..20 {
            let (what, mutated) = fault::random_mutation(&pristine, &mut rng);
            decode_must_survive(&pristine, &mutated, &what, kind);
            total += 1;
        }
        // A forged BIND timestamp span with a valid checksum: only the
        // decoder's own consistency check stands between it and a trace
        // buffer sized by the forged span.
        let forged = forge_bind_last_ts(&pristine, 1 << 40);
        decode_must_survive(&pristine, &forged, "forged BIND timestamp span", kind);
        forged_span_is_typed_corrupt(&forged, kind);
        total += 1;
    }
    assert!(total >= 500, "harness only exercised {total} mutations");
}

/// Rewrites the last timestamp recorded in `BIND` (the payload's final
/// eight bytes) and recomputes the section checksum.
fn forge_bind_last_ts(bytes: &[u8], last_ts: u64) -> Vec<u8> {
    let span = *wet_core::section_spans(bytes)
        .expect("pristine image dissects")
        .iter()
        .find(|s| &s.tag == b"BIND")
        .expect("BIND present");
    let mut out = bytes.to_vec();
    let end = span.payload_start + span.payload_len;
    out[end - 8..end].copy_from_slice(&last_ts.to_le_bytes());
    let mut crc = wet_core::crc::Crc32::new();
    crc.update(&span.tag);
    crc.update(&(span.payload_len as u64).to_le_bytes());
    crc.update(&out[span.payload_start..end]);
    out[end..end + 4].copy_from_slice(&crc.finish().to_le_bytes());
    out
}

/// Both entry points that decode `BIND` — the strict reader and the
/// lazy store's open — reject `forged` as typed corrupt data.
fn forged_span_is_typed_corrupt(forged: &[u8], kind: Kind) {
    let err = Wet::read_from(&mut &forged[..]).expect_err("forged span accepted");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{}: {err}", kind.name());
    let dir = std::env::temp_dir().join(format!("wet-forged-bind-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{}.wetz", kind.name()));
    std::fs::write(&path, forged).unwrap();
    let store = wet_core::TraceStore::new(wet_core::StoreOptions::default());
    match store.open("forged", "", &path, None) {
        Err(wet_core::StoreErr::Corrupt(_)) => {}
        Err(e) => panic!("{}: store open: expected corrupt, got {e}", kind.name()),
        Ok(_) => panic!("{}: store opened a forged BIND span", kind.name()),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The v1 compatibility reader faces the same adversary as v2 — but
/// with no section checksums to hide behind. Its contract is weaker
/// (a mutation may decode to a *different* trace undetected) yet just
/// as strict where it matters: no panic, no unbounded allocation, and
/// anything it does accept must not break downstream consumers.
#[test]
fn v1_fixture_mutations_never_panic_the_compat_reader() {
    for (fi, name) in ["v1-collatz-t1.wetz", "v1-collatz-t2.wetz"].into_iter().enumerate() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
        let pristine = std::fs::read(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
        Wet::read_from(&mut &pristine[..]).unwrap_or_else(|e| panic!("{name}: pristine read: {e}"));

        let mut rng = FaultRng::new(0x51DE_C0DE + fi as u64);
        let mut images: Vec<(String, Vec<u8>)> = Vec::new();
        for _ in 0..60 {
            images.push(fault::bit_flip(&pristine, &mut rng));
        }
        for _ in 0..30 {
            images.push(fault::truncate_random(&pristine, &mut rng));
        }
        // Legacy images are unsectioned, so the section-aware families
        // must degrade to harmless no-ops rather than panic.
        images.push(fault::inflate_length(&pristine, &mut rng));
        images.push(fault::shuffle_sections(&pristine, &mut rng));
        assert!(fault::boundary_truncations(&pristine).is_empty(), "{name}: v1 has no sections");

        for (what, mutated) in images {
            // Every entry point must fail cleanly or return a WET that
            // itself survives validation *being run* (a checksum-less
            // format may accept changed bytes; it may never blow up).
            let outcome = std::panic::catch_unwind(|| {
                if let Ok(wet) = Wet::read_from(&mut &mutated[..]) {
                    let _ = wet.validate();
                }
                if let Ok(report) = Wet::fsck(&mut &mutated[..]) {
                    let _ = report.is_clean();
                }
                if let Ok((wet, _)) = Wet::read_salvaging(&mut &mutated[..]) {
                    let _ = wet.validate();
                }
            });
            assert!(outcome.is_ok(), "{name}: {what}: v1 reader panicked");
        }
    }
}

/// Flips one bit in the payload of one section and returns the image.
fn damage_section(bytes: &[u8], tag: &[u8; 4]) -> Vec<u8> {
    let span = *wet_core::section_spans(bytes)
        .expect("pristine image dissects")
        .iter()
        .find(|s| &s.tag == tag)
        .expect("section present");
    let mut out = bytes.to_vec();
    out[span.payload_start + span.payload_len / 2] ^= 0x10;
    out
}

#[test]
fn salvage_recovers_every_intact_section() {
    for kind in [Kind::Go, Kind::Gzip, Kind::Twolf] {
        let pristine_wet = build_wet(kind);
        let bytes = wetz_bytes(&pristine_wet);
        let strict_cf = query::cf_trace_forward(&pristine_wet).unwrap();

        // Damaged unique-values section: control flow (TSEQ + BIND) is
        // untouched, so the degraded CF trace must be complete and
        // exactly the strict one.
        let (wet, report) =
            Wet::read_salvaging(&mut &damage_section(&bytes, b"VALS")[..]).expect("salvageable");
        assert!(report.seqs_lost > 0 && report.seqs_recovered > 0, "{}: VALS damage", kind.name());
        let (cf, deg) = query::cf_trace_forward_partial(&wet, &query::Ctl::unbounded()).unwrap();
        assert!(deg.is_complete(), "{}: CF survives VALS damage", kind.name());
        assert_eq!(cf, strict_cf, "{}: CF equal after VALS damage", kind.name());

        // Damaged timestamp section: values (VALS) are intact, so every
        // per-node value group still decodes; the timestamped trace is
        // what degrades.
        let (wet, report) =
            Wet::read_salvaging(&mut &damage_section(&bytes, b"TSEQ")[..]).expect("salvageable");
        assert!(report.seqs_lost > 0, "{}: TSEQ damage loses sequences", kind.name());
        let (_, deg) = query::cf_trace_forward_partial(&wet, &query::Ctl::unbounded()).unwrap();
        assert!(!deg.is_complete(), "{}: TSEQ damage degrades CF", kind.name());
        assert!(
            wet.nodes().iter().all(|n| n.groups.iter().all(|g| g.uvals.iter().all(|u| u.is_available()))),
            "{}: VALS sequences survive TSEQ damage",
            kind.name()
        );

        // Damaged edge-label section: structure and both value streams
        // survive; the strict reader still refuses the file.
        let (wet, _) =
            Wet::read_salvaging(&mut &damage_section(&bytes, b"EDGL")[..]).expect("salvageable");
        let (cf, deg) = query::cf_trace_forward_partial(&wet, &query::Ctl::unbounded()).unwrap();
        assert!(deg.is_complete() && cf == strict_cf, "{}: CF survives EDGL damage", kind.name());
        assert!(Wet::read_from(&mut &damage_section(&bytes, b"EDGL")[..]).is_err());
    }
}

/// Strict queries on a salvaged WET with unavailable sequences must
/// return `QueryErr::Corrupt` — a typed error, never a panic. (The
/// degraded variants stay the lossy-but-total alternative.)
#[test]
fn strict_queries_report_corrupt_instead_of_panicking() {
    for kind in [Kind::Go, Kind::Gzip, Kind::Mcf] {
        let pristine = build_wet(kind);
        let bytes = wetz_bytes(&pristine);
        let stmts: Vec<_> = pristine
            .nodes()
            .iter()
            .flat_map(|n| n.stmts.iter().map(|s| s.id))
            .collect();

        // Damaged VALS: some value group is unavailable, so some strict
        // value_trace must answer Corrupt — and none may panic.
        let (wet, report) =
            Wet::read_salvaging(&mut &damage_section(&bytes, b"VALS")[..]).expect("salvageable");
        assert!(report.seqs_lost > 0, "{}: VALS damage loses sequences", kind.name());
        let mut corrupt_seen = false;
        for &s in &stmts {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                query::value_trace(&wet, s, 1)
            }));
            match outcome {
                Ok(Ok(_)) => {}
                Ok(Err(query::QueryErr::Corrupt(_))) => corrupt_seen = true,
                Ok(Err(e)) => panic!("{}: s{} unexpected error {e}", kind.name(), s.0),
                Err(_) => panic!("{}: strict value_trace panicked on s{}", kind.name(), s.0),
            }
        }
        assert!(corrupt_seen, "{}: VALS damage never surfaced as Corrupt", kind.name());
        // The degraded variant stays total on the same WET.
        for &s in &stmts {
            let _ = query::value_trace_partial(&wet, s, 1, &query::Ctl::unbounded()).unwrap();
        }

        // Damaged TSEQ: the strict whole-trace walk hits an unavailable
        // timestamp sequence mid-walk and must answer Corrupt.
        let (wet2, _) =
            Wet::read_salvaging(&mut &damage_section(&bytes, b"TSEQ")[..]).expect("salvageable");
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            query::cf_trace_forward(&wet2)
        }));
        match outcome {
            Ok(Err(query::QueryErr::Corrupt(_))) => {}
            Ok(Ok(_)) => panic!("{}: strict CF trace accepted TSEQ damage", kind.name()),
            Ok(Err(e)) => panic!("{}: unexpected error {e}", kind.name()),
            Err(_) => panic!("{}: strict CF trace panicked on TSEQ damage", kind.name()),
        }
        // And on the VALS-damaged WET the strict CF trace still works
        // (control flow does not touch value sections).
        assert!(query::cf_trace_forward(&wet).is_ok(), "{}: CF strict over VALS damage", kind.name());
    }
}
