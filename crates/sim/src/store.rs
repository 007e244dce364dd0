//! Content-addressed, crash-safe record stores.
//!
//! A store directory holds one file per record, named
//! `<fnv64-of-encoding>.<ext>` and containing the record's single-line
//! encoding followed by a newline. Content-addressed names make saves
//! idempotent and merges from parallel writers trivial (identical records
//! collide into one file); loading sorts by file name, so the read-back
//! order is stable across filesystems. The fuzz corpus (`.uchk1`) and the
//! swarm shard store (`.uswm1`) are both stores of this shape.
//!
//! Saves are crash-safe: a record is written under a temporary name that
//! does not end in `.<ext>`, synced, and renamed into place, and the
//! directory is synced after. An interrupted save leaves at most a stray
//! temporary file, which loading ignores. A record whose content no longer
//! hashes to its file name (renamed, truncated or edited) is rejected on
//! load rather than silently accepted.

use crate::coverage::Fnv64;
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The file name of the record whose encoding is `encoded`.
fn entry_name(encoded: &str, ext: &str) -> String {
    let mut h = Fnv64::new();
    h.write(encoded.as_bytes());
    format!("{:016x}.{ext}", h.finish())
}

/// Writes the record encoded as `encoded` into `dir` (created if missing),
/// named by content hash. Re-saving an existing record rewrites the same
/// file. The content goes to a temporary file, is synced, and is renamed
/// into place (the directory synced after), so a reader never sees a
/// partial record. Returns the path written.
pub fn save_entry(dir: &Path, ext: &str, encoded: &str) -> io::Result<PathBuf> {
    // Distinct temporary names for concurrent savers, within a process
    // (the counter) and across processes (the pid).
    static SAVES: AtomicU64 = AtomicU64::new(0);
    fs::create_dir_all(dir)?;
    let name = entry_name(encoded, ext);
    let path = dir.join(&name);
    let tmp = dir.join(format!(
        ".{name}.{}-{}.tmp",
        std::process::id(),
        SAVES.fetch_add(1, Ordering::Relaxed)
    ));
    let mut file = fs::File::create(&tmp)?;
    file.write_all(format!("{encoded}\n").as_bytes())?;
    file.sync_all()?;
    fs::rename(&tmp, &path)?;
    fs::File::open(dir)?.sync_all()?;
    Ok(path)
}

/// Loads every `.<ext>` record in `dir`, sorted by file name, through
/// `parse`. A missing directory is an empty store; other files (such as
/// the temporary files of an interrupted save) are ignored. A record that
/// does not parse, or whose canonical re-encoding (`encode`) does not hash
/// to its file name, is an [`io::ErrorKind::InvalidData`] error naming the
/// file.
pub fn load_entries<T, E: fmt::Display>(
    dir: &Path,
    ext: &str,
    parse: impl Fn(&str) -> Result<T, E>,
    encode: impl Fn(&T) -> String,
) -> io::Result<Vec<T>> {
    let mut names: Vec<PathBuf> = match fs::read_dir(dir) {
        Ok(rd) => rd
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == ext))
            .collect(),
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    names.sort();
    names
        .into_iter()
        .map(|path| {
            let invalid = |msg: String| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: {msg}", path.display()),
                )
            };
            let text = fs::read_to_string(&path)?;
            let record = parse(&text).map_err(|e| invalid(e.to_string()))?;
            let want = entry_name(&encode(&record), ext);
            if path.file_name().is_none_or(|n| n != want.as_str()) {
                return Err(invalid(format!(
                    "content hashes to {want}, not to the file name"
                )));
            }
            Ok(record)
        })
        .collect()
}
