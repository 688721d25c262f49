//! Recorded results: a deterministic measurement rendered by the
//! workspace's one JSON writer and compared *for equality* with its
//! `BENCH_<name>.json` at the repository root.
//!
//! A bench module says which fields a row has ([`Fields`]); a test in
//! `tests/recorded.rs` measures, asserts its claims, assembles a
//! [`Record`] and [`Record::check`]s it. Every recorded value is
//! simulated, so the comparison has no tolerance: any drift fails, and
//! rows sit one per line so the failure is a one-line diff.

use ehdl_runtime::json::Json;
use std::path::Path;

/// How to re-record every `BENCH_*.json` after an intended change.
pub const RERECORD: &str =
    "EHDL_WRITE_BENCH=1 cargo test --release --test recorded -- --include-ignored";

/// The members one measured row (or report) contributes to a recording.
pub trait Fields {
    /// Write `key`/value pairs into the currently open object.
    fn fields(&self, j: &mut Json);
}

/// One recording under construction: a JSON object with one member per
/// line, arrays of rows with one row per line.
#[derive(Debug)]
pub struct Record(Json);

impl Default for Record {
    fn default() -> Record {
        let mut j = Json::pretty();
        j.begin_obj();
        Record(j)
    }
}

impl Record {
    /// Add `"key": [row, …]`, one row per line.
    pub fn rows<R: Fields>(mut self, key: &str, rows: &[R]) -> Record {
        self.0.key(key).begin_arr();
        for r in rows {
            self.0.begin_row();
            r.fields(&mut self.0);
            self.0.end_obj();
        }
        self.0.end_arr();
        self
    }

    /// Add `report`'s fields as top-level members, one per line.
    pub fn fields(mut self, report: &impl Fields) -> Record {
        report.fields(&mut self.0);
        self
    }

    /// Add one top-level count.
    pub fn uint(mut self, key: &str, v: u64) -> Record {
        self.0.key(key).uint(v);
        self
    }

    /// Compare the finished document with `BENCH_<name>.json` at the
    /// repository root byte for byte, or write it there when
    /// `EHDL_WRITE_BENCH` is set.
    ///
    /// # Errors
    ///
    /// See [`check_at`].
    pub fn check(mut self, name: &str) -> Result<(), String> {
        self.0.end_obj();
        let measured = self.0.finish() + "\n";
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let write = std::env::var_os("EHDL_WRITE_BENCH").is_some();
        check_at(&root, name, &measured, write)
    }
}

/// Compare `measured` with `dir/BENCH_<name>.json` (or, with `write`,
/// replace that recording).
///
/// # Errors
///
/// A missing recording, or the first line on which the recording and the
/// measurement differ — both versions of it and the re-record command.
pub fn check_at(dir: &Path, name: &str, measured: &str, write: bool) -> Result<(), String> {
    let file = format!("BENCH_{name}.json");
    if write {
        return std::fs::write(dir.join(&file), measured)
            .map_err(|e| format!("cannot write {file}: {e}"));
    }
    let recorded = std::fs::read_to_string(dir.join(&file))
        .map_err(|e| format!("no recording {file} ({e}); record it with: {RERECORD}"))?;
    if recorded == measured {
        return Ok(());
    }
    let line = recorded.lines().zip(measured.lines()).take_while(|(r, m)| r == m).count();
    let at = |text: &str| text.lines().nth(line).unwrap_or("<end of file>").to_string();
    Err(format!(
        "{file} line {} differs\n  recorded: {}\n  measured: {}\n\
         if the change is intended, re-record with: {RERECORD}",
        line + 1,
        at(&recorded),
        at(measured),
    ))
}
