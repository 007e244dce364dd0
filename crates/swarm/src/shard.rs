//! Content-addressed shard store for OS-level campaign sharding.
//!
//! A campaign too large for one process is split into contiguous index
//! ranges, each run by a separate `upsilon-swarm shard` invocation. Every
//! shard writes one [`ShardRecord`] — campaign identity, its range and
//! its [`SwarmReport`] — into a shared [`store`] directory, named
//! `<fnv64-of-payload>.uswm1` exactly like the fuzz corpus: saves are
//! idempotent (a re-run shard rewrites the same file) and crash-safe,
//! loads sort by filename and reject a record whose content does not hash
//! to its name, and [`merge_records`] refuses to sum shards unless their
//! ranges partition the campaign and their campaign identities agree.

use crate::executor::SwarmReport;
use std::io;
use std::path::{Path, PathBuf};
use upsilon_sim::store;

/// The file extension of shard records.
pub const SHARD_EXT: &str = "uswm1";

/// One completed shard of a campaign: identity, range and report.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ShardRecord {
    /// Canonical mix string ([`mix_to_string`](crate::spec::mix_to_string)).
    pub mix: String,
    /// Total campaign instances (across all shards).
    pub instances: u64,
    /// The campaign seed.
    pub campaign_seed: u64,
    /// This shard's index in `0..shards`.
    pub shard_index: u64,
    /// Total shard count of the campaign.
    pub shards: u64,
    /// First campaign instance index this shard ran (inclusive).
    pub lo: u64,
    /// Last campaign instance index this shard ran (exclusive).
    pub hi: u64,
    /// Step quota per sweep the shard ran with.
    pub batch: u64,
    /// Worker threads the shard ran with.
    pub workers: u64,
    /// The shard's aggregate report.
    pub report: SwarmReport,
}

impl ShardRecord {
    /// Canonical single-line encoding, `USWM1:`-prefixed.
    pub fn encode(&self) -> String {
        let r = &self.report;
        format!(
            "USWM1: mix={} instances={} seed={} shard={}/{} lo={} hi={} \
             batch={} workers={} ran={} packed_bytes={} arena_bytes={} \
             steps={} decisions={} fd_queries={} spec_ok={} run_cond_ok={} \
             finished={}",
            self.mix,
            self.instances,
            self.campaign_seed,
            self.shard_index,
            self.shards,
            self.lo,
            self.hi,
            self.batch,
            self.workers,
            r.instances,
            r.packed_bytes,
            r.arena_bytes,
            r.total_steps,
            r.decisions,
            r.fd_queries,
            r.spec_ok,
            r.run_cond_ok,
            r.finished,
        )
    }

    /// Parses the [`encode`](Self::encode) form.
    pub fn parse(text: &str) -> Result<Self, String> {
        let body = text
            .trim()
            .strip_prefix("USWM1:")
            .ok_or_else(|| "missing USWM1: prefix".to_string())?;
        let get = |key: &str| -> Result<String, String> {
            for field in body.split_whitespace() {
                if let Some(v) = field.strip_prefix(key).and_then(|r| r.strip_prefix('=')) {
                    return Ok(v.to_string());
                }
            }
            Err(format!("missing field `{key}`"))
        };
        let num = |v: String, key: &str| -> Result<u64, String> {
            v.parse::<u64>()
                .map_err(|_| format!("bad number `{v}` for `{key}`"))
        };
        let mix = get("mix")?;
        let shard = get("shard")?;
        let (idx, total) = shard
            .split_once('/')
            .ok_or_else(|| format!("bad shard field `{shard}`"))?;
        let report = SwarmReport {
            instances: num(get("ran")?, "ran")?,
            packed_bytes: num(get("packed_bytes")?, "packed_bytes")?,
            arena_bytes: num(get("arena_bytes")?, "arena_bytes")?,
            total_steps: num(get("steps")?, "steps")?,
            decisions: num(get("decisions")?, "decisions")?,
            fd_queries: num(get("fd_queries")?, "fd_queries")?,
            spec_ok: num(get("spec_ok")?, "spec_ok")?,
            run_cond_ok: num(get("run_cond_ok")?, "run_cond_ok")?,
            finished: num(get("finished")?, "finished")?,
        };
        Ok(ShardRecord {
            mix,
            instances: num(get("instances")?, "instances")?,
            campaign_seed: num(get("seed")?, "seed")?,
            shard_index: idx
                .parse()
                .map_err(|_| format!("bad shard index `{idx}`"))?,
            shards: total
                .parse()
                .map_err(|_| format!("bad shard count `{total}`"))?,
            lo: num(get("lo")?, "lo")?,
            hi: num(get("hi")?, "hi")?,
            batch: num(get("batch")?, "batch")?,
            workers: num(get("workers")?, "workers")?,
            report,
        })
    }

    /// Campaign identity; records with different keys never merge.
    pub fn campaign_key(&self) -> String {
        format!(
            "mix={} instances={} seed={}",
            self.mix, self.instances, self.campaign_seed
        )
    }
}

/// Writes `record` into `dir` (created if missing), named by content hash,
/// through [`store::save_entry`]. Re-saving an identical record rewrites
/// the same file. Returns the path written.
pub fn save_record(dir: &Path, record: &ShardRecord) -> io::Result<PathBuf> {
    store::save_entry(dir, SHARD_EXT, &record.encode())
}

/// Loads every `.uswm1` record in `dir`, sorted by filename, through
/// [`store::load_entries`]. A missing directory is an empty store; an
/// unparsable record, or one whose content does not hash to its file
/// name, is an [`io::ErrorKind::InvalidData`] error naming the file.
pub fn load_records(dir: &Path) -> io::Result<Vec<ShardRecord>> {
    store::load_entries(dir, SHARD_EXT, ShardRecord::parse, ShardRecord::encode)
}

/// Merges shard records of one campaign into its aggregate report.
///
/// Fails unless all records share one campaign key and their `[lo, hi)`
/// ranges exactly partition `[0, instances)` — no gap, no overlap, no
/// missing shard. Duplicate records (identical ranges, e.g. a shard saved
/// from a re-run) are deduplicated only if byte-identical.
pub fn merge_records(records: &[ShardRecord]) -> Result<SwarmReport, String> {
    let first = records.first().ok_or("no shard records to merge")?;
    let key = first.campaign_key();
    let mut unique: Vec<&ShardRecord> = Vec::new();
    for rec in records {
        if rec.campaign_key() != key {
            return Err(format!(
                "campaign mismatch: `{}` vs `{}`",
                rec.campaign_key(),
                key
            ));
        }
        match unique.iter().find(|u| u.lo == rec.lo && u.hi == rec.hi) {
            Some(u) if *u == rec => {}
            Some(_) => {
                return Err(format!(
                    "conflicting records for range [{}, {})",
                    rec.lo, rec.hi
                ))
            }
            None => unique.push(rec),
        }
    }
    unique.sort_by_key(|r| r.lo);
    let mut expect = 0;
    for rec in &unique {
        if rec.lo != expect {
            return Err(format!(
                "shard ranges do not partition the campaign: expected lo={expect}, got [{}, {})",
                rec.lo, rec.hi
            ));
        }
        if rec.hi <= rec.lo {
            return Err(format!("empty or inverted range [{}, {})", rec.lo, rec.hi));
        }
        expect = rec.hi;
    }
    if expect != first.instances {
        return Err(format!(
            "shard ranges cover [0, {expect}) but the campaign has {} instances",
            first.instances
        ));
    }
    let mut report = SwarmReport::default();
    for rec in &unique {
        report = SwarmReport {
            instances: report.instances + rec.report.instances,
            packed_bytes: report.packed_bytes + rec.report.packed_bytes,
            arena_bytes: report.arena_bytes + rec.report.arena_bytes,
            total_steps: report.total_steps + rec.report.total_steps,
            decisions: report.decisions + rec.report.decisions,
            fd_queries: report.fd_queries + rec.report.fd_queries,
            spec_ok: report.spec_ok + rec.report.spec_ok,
            run_cond_ok: report.run_cond_ok + rec.report.run_cond_ok,
            finished: report.finished + rec.report.finished,
        };
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn rec(lo: u64, hi: u64, shards: u64, idx: u64) -> ShardRecord {
        ShardRecord {
            mix: "converge-pair:1".to_string(),
            instances: 100,
            campaign_seed: 7,
            shard_index: idx,
            shards,
            lo,
            hi,
            batch: 64,
            workers: 2,
            report: SwarmReport {
                instances: hi - lo,
                packed_bytes: 1000 * (hi - lo),
                arena_bytes: 2000 * (hi - lo),
                total_steps: 12 * (hi - lo),
                decisions: 2 * (hi - lo),
                fd_queries: 0,
                spec_ok: hi - lo,
                run_cond_ok: hi - lo,
                finished: hi - lo,
            },
        }
    }

    #[test]
    fn encode_parse_round_trip() {
        let r = rec(0, 50, 2, 0);
        assert_eq!(ShardRecord::parse(&r.encode()).expect("parses"), r);
    }

    #[test]
    fn save_is_idempotent_and_load_sorted() {
        let dir = std::env::temp_dir().join(format!("upsilon-swarm-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let a = rec(0, 50, 2, 0);
        let b = rec(50, 100, 2, 1);
        let p1 = save_record(&dir, &a).expect("save");
        let p2 = save_record(&dir, &a).expect("save");
        assert_eq!(p1, p2, "identical records share one file");
        save_record(&dir, &b).expect("save");
        let loaded = load_records(&dir).expect("load");
        assert_eq!(loaded.len(), 2);
        assert!(loaded.contains(&a) && loaded.contains(&b));
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// A fresh, empty scratch directory for one test.
    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("upsilon-swarm-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn renamed_record_is_invalid_data_naming_the_file() {
        let dir = scratch("renamed");
        let saved = save_record(&dir, &rec(0, 50, 2, 0)).expect("save");
        let moved = dir.join(format!("{:016x}.{SHARD_EXT}", 0x1234u64));
        fs::rename(&saved, &moved).expect("rename");
        let err = load_records(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("0000000000001234.uswm1"), "{err}");
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn torn_record_is_invalid_data_naming_the_file() {
        let dir = scratch("torn");
        let saved = save_record(&dir, &rec(0, 50, 2, 0)).expect("save");
        // Dropping the last field of a torn write still parses when the
        // field is a digit short; only the content hash tells the two
        // apart.
        let text = fs::read_to_string(&saved).expect("read");
        let cut = text.trim_end().strip_suffix('0').expect("finished=50");
        assert!(ShardRecord::parse(cut).is_ok(), "the cut is a valid record");
        fs::write(&saved, format!("{cut}\n")).expect("write");
        let err = load_records(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let name = saved.file_name().and_then(|n| n.to_str()).expect("name");
        assert!(err.to_string().contains(name), "{err}");
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn leftover_temp_file_is_ignored() {
        let dir = scratch("leftover");
        let a = rec(0, 50, 2, 0);
        let saved = save_record(&dir, &a).expect("save");
        let entries = fs::read_dir(&dir).expect("list").count();
        assert_eq!(entries, 1, "the save leaves no temporary file behind");
        // What an interrupted save leaves: a partial temporary file.
        let name = saved.file_name().and_then(|n| n.to_str()).expect("name");
        fs::write(dir.join(format!(".{name}.1-0.tmp")), "USWM1: mix=").expect("write");
        assert_eq!(load_records(&dir).expect("load"), vec![a]);
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn merge_requires_partition() {
        let full = merge_records(&[rec(0, 50, 2, 0), rec(50, 100, 2, 1)]).expect("partition");
        assert_eq!(full.instances, 100);
        assert_eq!(full.decisions, 200);
        assert!(merge_records(&[rec(0, 50, 2, 0)]).is_err(), "gap at tail");
        assert!(
            merge_records(&[rec(0, 60, 2, 0), rec(50, 100, 2, 1)]).is_err(),
            "overlap"
        );
        assert!(merge_records(&[rec(10, 100, 2, 1)]).is_err(), "gap at head");
    }

    #[test]
    fn merge_rejects_campaign_mismatch() {
        let mut other = rec(50, 100, 2, 1);
        other.campaign_seed = 8;
        assert!(merge_records(&[rec(0, 50, 2, 0), other]).is_err());
    }
}
