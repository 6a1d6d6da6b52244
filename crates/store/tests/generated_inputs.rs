//! Generated inputs for the store loader: seeded random byte edits
//! (bit flips, overwrites, truncations, insertions, deletions) to a
//! multi-record log. Half the cases then reseal every well-framed
//! record's checksum, so the edited payloads reach `decode_entry`
//! instead of failing the checksum. Whatever the bytes, `load` either
//! counts the damage in `skipped` or refuses the header cleanly, and
//! never panics; the strict `verify` agrees with it on whether the log
//! is sound, and a writer reopening the log appends after its sound
//! prefix. The proptest stand-in does not shrink, so cases are small.

use drift_core::schedule::{encode_entry, Schedule, ScheduleKey};
use drift_quant::precision::Precision;
use drift_store::{
    fnv1a, load, verify, LoadReport, StoreError, StoreWriter, FRAME_BYTES, HEADER_BYTES,
    MAX_RECORD_LEN,
};
use proptest::{run_cases, TestCaseError, TestRng};
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

const RECORDS: usize = 4;

fn entries() -> Vec<(ScheduleKey, Schedule)> {
    (1..=RECORDS)
        .map(|i| {
            let key = ScheduleKey {
                shape: drift_accel::gemm::GemmShape::new(i * 32, 128, 64).unwrap(),
                act_high: i * 16,
                weight_high: 32,
                act_precisions: (Precision::INT8, Precision::INT4),
                weight_precisions: (Precision::INT8, Precision::INT4),
                fabric: drift_accel::systolic::ArrayGeometry::new(8, 9).unwrap(),
            };
            (key, key.solve().unwrap())
        })
        .collect()
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "drift-store-generated-{}-{tag}.log",
        std::process::id()
    ))
}

/// The bytes of a sound log holding `set`, written by the store itself.
fn sound_log(path: &Path, set: &[(ScheduleKey, Schedule)]) -> Vec<u8> {
    let _ = fs::remove_file(path);
    let (_, mut writer) = StoreWriter::open(path).unwrap();
    writer.append_batch(set).unwrap();
    writer.sync().unwrap();
    drop(writer);
    fs::read(path).unwrap()
}

fn below(rng: &mut TestRng, n: usize) -> usize {
    rng.next_u64() as usize % n.max(1)
}

/// One to four random edits anywhere in the file, header included.
fn edit(rng: &mut TestRng, bytes: &mut Vec<u8>) {
    for _ in 0..1 + rng.next_u64() % 4 {
        let at = below(rng, bytes.len());
        match rng.next_u64() % 5 {
            0 if !bytes.is_empty() => bytes[at] ^= 1 << (rng.next_u64() % 8),
            1 if !bytes.is_empty() => bytes[at] = rng.next_u64() as u8,
            2 => bytes.truncate(at),
            3 => {
                let inserted: Vec<u8> = (0..1 + below(rng, 16))
                    .map(|_| rng.next_u64() as u8)
                    .collect();
                bytes.splice(at..at, inserted);
            }
            _ => {
                let end = (at + 1 + below(rng, 16)).min(bytes.len());
                bytes.drain(at..end);
            }
        }
    }
}

/// Rewrites the checksum of every record the loader would frame, so an
/// edited payload fails its decode rather than its checksum.
fn reseal(bytes: &mut [u8]) {
    let mut pos = HEADER_BYTES;
    while let Some(frame) = bytes.get(pos..pos + FRAME_BYTES) {
        let len = u32::from_le_bytes(frame[..4].try_into().unwrap());
        let start = pos + FRAME_BYTES;
        let end = start + len as usize;
        if len > MAX_RECORD_LEN || end > bytes.len() {
            break;
        }
        let sum = fnv1a(&bytes[start..end]);
        bytes[pos + 4..start].copy_from_slice(&sum.to_le_bytes());
        pos = end;
    }
}

/// Runs `f`, turning a panic into a case failure.
fn no_panic<T>(what: &str, f: impl FnOnce() -> T) -> Result<T, TestCaseError> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|_| TestCaseError::fail(format!("{what} panicked")))
}

/// The loader's report is self-consistent, and every entry it returns
/// is a sound frame present in the file.
fn check_report(report: &LoadReport, bytes: &[u8]) -> Result<(), TestCaseError> {
    let fail = |m: &str| Err(TestCaseError::fail(format!("{m}: {report:?}")));
    if report.bytes != bytes.len() as u64 || report.records != report.entries.len() as u64 {
        return fail("counts disagree with the file");
    }
    if report.valid_len > report.bytes || report.truncated_tail != (report.valid_len < report.bytes)
    {
        return fail("the sound prefix and the tail disagree");
    }
    for (key, schedule) in &report.entries {
        let mut payload = Vec::new();
        encode_entry(key, schedule, &mut payload);
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        if !bytes.windows(frame.len()).any(|w| w == frame) {
            return fail("a loaded entry is no frame in the file");
        }
    }
    Ok(())
}

#[test]
fn edited_logs_load_their_sound_records_or_refuse_cleanly() {
    let set = entries();
    let path = temp_path("edited");
    let sound = sound_log(&path, &set);
    run_cases(
        "edited_logs_load_their_sound_records_or_refuse_cleanly",
        |rng| {
            let mut bytes = sound.clone();
            edit(rng, &mut bytes);
            if rng.next_u64() % 2 == 0 {
                reseal(&mut bytes);
            }
            fs::write(&path, &bytes).unwrap();

            // Magic and version: the reserved word may change freely.
            let header_sound = bytes.len() >= HEADER_BYTES && bytes[..12] == sound[..12];
            let report = match (no_panic("load", || load(&path))?, header_sound) {
                (Ok(report), true) => report,
                (Err(StoreError::Magic { .. } | StoreError::Version { .. }), false) => {
                    return Ok(())
                }
                (outcome, _) => {
                    return Err(TestCaseError::fail(format!(
                        "header sound: {header_sound}, load: {outcome:?}"
                    )))
                }
            };
            check_report(&report, &bytes)?;

            // The strict reader fails exactly the logs the loader skipped in.
            let strict = no_panic("verify", || verify(&path, false))?;
            match (&strict, report.skipped) {
                (Ok(v), 0) if v.records == report.records => {}
                (Err(StoreError::Corrupt { .. }), skipped) if skipped > 0 => {}
                _ => {
                    return Err(TestCaseError::fail(format!(
                        "verify {strict:?} disagrees with load {report:?}"
                    )))
                }
            }

            // A writer reopening the log appends after its sound prefix.
            let (reopened, mut writer) = no_panic("open", || StoreWriter::open(&path))?
                .map_err(|e| TestCaseError::fail(format!("open refused: {e}")))?;
            writer.append(&set[0].0, &set[0].1).unwrap();
            writer.sync().unwrap();
            drop(writer);
            let after = load(&path).unwrap();
            let torn = u64::from(reopened.truncated_tail);
            if after.records != report.records + 1
                || after.skipped != report.skipped - torn
                || after.truncated_tail
            {
                return Err(TestCaseError::fail(format!(
                    "append after {report:?} read back as {after:?}"
                )));
            }
            Ok(())
        },
    );
    fs::remove_file(&path).unwrap();
}
