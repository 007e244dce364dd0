//! On-disk corpus persistence.
//!
//! A corpus directory is a [`store`] of `UCHK1:` tokens: one file per
//! entry, named `<fnv64-of-token>.uchk1`. Saves are idempotent and
//! crash-safe, loads sort by file name, and an entry whose content no
//! longer hashes to its file name (renamed, truncated or edited) is
//! rejected rather than silently seeding a campaign with a token nobody
//! saved.

use std::io;
use std::path::{Path, PathBuf};
use upsilon_sim::{store, ReplayToken};

/// The file extension of corpus entries.
pub const CORPUS_EXT: &str = "uchk1";

/// Writes `token` into `dir` (created if missing), named by content hash,
/// through [`store::save_entry`]. Returns the path written.
pub fn save_corpus_entry(dir: &Path, token: &ReplayToken) -> io::Result<PathBuf> {
    store::save_entry(dir, CORPUS_EXT, &token.encode())
}

/// Loads every `.uchk1` entry in `dir`, sorted by filename, through
/// [`store::load_entries`]: a missing directory is an empty corpus, and an
/// unparsable entry, or one whose content does not hash to its file name,
/// is an [`io::ErrorKind::InvalidData`] error naming the file.
pub fn load_corpus(dir: &Path) -> io::Result<Vec<ReplayToken>> {
    store::load_entries(dir, CORPUS_EXT, ReplayToken::parse, ReplayToken::encode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use upsilon_sim::{ProcessId, Time};

    fn sample(seed: u64) -> ReplayToken {
        ReplayToken {
            n_plus_1: 3,
            crashes: vec![None, Some(Time(seed)), None],
            fd_choices: vec![vec![0, 1], Vec::new(), vec![2]],
            schedule: vec![ProcessId(0), ProcessId(2), ProcessId(0)],
        }
    }

    #[test]
    fn round_trips_and_is_idempotent() {
        let dir = std::env::temp_dir().join(format!("upsilon-corpus-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let a = sample(1);
        let b = sample(2);
        let p1 = save_corpus_entry(&dir, &a).unwrap();
        let p2 = save_corpus_entry(&dir, &a).unwrap();
        assert_eq!(p1, p2, "identical tokens share one file");
        save_corpus_entry(&dir, &b).unwrap();
        let loaded = load_corpus(&dir).unwrap();
        assert_eq!(loaded.len(), 2);
        assert!(loaded.contains(&a) && loaded.contains(&b));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_directory_is_empty() {
        let dir = Path::new("/nonexistent/upsilon-corpus");
        assert_eq!(load_corpus(dir).unwrap(), Vec::new());
    }

    #[test]
    fn garbage_entry_is_invalid_data() {
        let dir = std::env::temp_dir().join(format!("upsilon-corpus-bad-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("deadbeef.uchk1"), "not a token\n").unwrap();
        let err = load_corpus(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A fresh, empty scratch directory for one test.
    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("upsilon-corpus-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn renamed_entry_is_invalid_data_naming_the_file() {
        let dir = scratch("renamed");
        let saved = save_corpus_entry(&dir, &sample(1)).unwrap();
        let moved = dir.join(format!("{:016x}.{CORPUS_EXT}", 0x1234u64));
        fs::rename(&saved, &moved).unwrap();
        let err = load_corpus(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("0000000000001234.uchk1"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_entry_is_invalid_data_naming_the_file() {
        let dir = scratch("truncated");
        let saved = save_corpus_entry(&dir, &sample(1)).unwrap();
        // Dropping the last schedule step still parses as a token; only
        // the content hash tells the two apart.
        let text = fs::read_to_string(&saved).unwrap();
        let cut = text.trim_end().rsplit_once(',').unwrap().0;
        assert!(ReplayToken::parse(cut).is_ok(), "the cut is a valid token");
        fs::write(&saved, format!("{cut}\n")).unwrap();
        let err = load_corpus(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let name = saved.file_name().unwrap().to_str().unwrap();
        assert!(err.to_string().contains(name), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn leftover_temp_file_is_ignored() {
        let dir = scratch("leftover");
        let a = sample(1);
        let saved = save_corpus_entry(&dir, &a).unwrap();
        let entries = fs::read_dir(&dir).unwrap().count();
        assert_eq!(entries, 1, "the save leaves no temporary file behind");
        // What an interrupted save leaves: a partial temporary file.
        let name = saved.file_name().unwrap().to_str().unwrap();
        fs::write(dir.join(format!(".{name}.1-0.tmp")), "UCHK1:n=3;c=").unwrap();
        assert_eq!(load_corpus(&dir).unwrap(), vec![a]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
