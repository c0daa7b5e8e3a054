//! The BELLE II Monte-Carlo workload generator (§IV).
//!
//! The paper's driving workload "utilizes 24 ROOT files of size from 583 KB
//! to 1.1 GB", acts "as a suite of many applications reading and writing
//! many files individually", and in its "read-heavy simulations, each file
//! is accessed 10–20 times in succession" in a looping sequential scan.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use geomancy_sim::population::ZipfSampler;
use geomancy_sim::record::FileId;

/// Smallest ROOT file in the suite (583 KB).
pub const MIN_FILE_BYTES: u64 = 583_000;
/// Largest ROOT file in the suite (1.1 GB).
pub const MAX_FILE_BYTES: u64 = 1_100_000_000;
/// Number of ROOT files the workload uses.
pub const DEFAULT_FILE_COUNT: usize = 24;
/// Fraction of accesses that are writes: the workload is read-heavy.
const WRITE_FRACTION: f64 = 0.05;

/// A file in the workload's working set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadFile {
    /// File identifier.
    pub fid: FileId,
    /// Size in bytes.
    pub size: u64,
    /// Logical path (ROOT files under a Monte-Carlo campaign directory).
    pub path: String,
}

/// One I/O operation of the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadOp {
    /// Target file.
    pub fid: FileId,
    /// `true` for a write (the occasional summary/ntuple update), `false`
    /// for the dominant reads.
    pub write: bool,
    /// Bytes accessed; `None` means the whole file.
    pub bytes: Option<u64>,
}

/// Generator for BELLE II-style runs.
#[derive(Debug, Clone)]
pub struct Belle2Workload {
    files: Vec<WorkloadFile>,
    rng: StdRng,
    runs_generated: u64,
    /// Cached zipf sampler for [`Self::zipf_run`], keyed by its exponent.
    zipf: Option<(f64, ZipfSampler)>,
}

impl Belle2Workload {
    /// Creates the standard 24-file workload.
    pub fn new(seed: u64) -> Self {
        Self::with_params(seed, DEFAULT_FILE_COUNT, 0)
    }

    /// Creates a workload with `file_count` files whose ids start at
    /// `fid_offset` — experiment 3 runs "a duplicate workload … accessing a
    /// different set of data", which is this constructor with a disjoint
    /// offset.
    ///
    /// # Panics
    ///
    /// Panics if `file_count` is zero.
    pub fn with_params(seed: u64, file_count: usize, fid_offset: u64) -> Self {
        assert!(file_count > 0, "workload needs at least one file");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut files = Vec::with_capacity(file_count);
        for i in 0..file_count {
            // Log-uniform sizes: Monte-Carlo outputs cluster small with a
            // few large event files, spanning the paper's 583 KB – 1.1 GB.
            let log_min = (MIN_FILE_BYTES as f64).ln();
            let log_max = (MAX_FILE_BYTES as f64).ln();
            let u: f64 = rng.gen();
            let size = (log_min + u * (log_max - log_min)).exp() as u64;
            let fid = FileId(fid_offset + i as u64);
            files.push(WorkloadFile {
                fid,
                size: size.clamp(MIN_FILE_BYTES, MAX_FILE_BYTES),
                path: format!("belle2/mc{}/evtgen-{:02}.root", fid_offset, i),
            });
        }
        Belle2Workload {
            files,
            rng,
            runs_generated: 0,
            zipf: None,
        }
    }

    /// The working set.
    pub fn files(&self) -> &[WorkloadFile] {
        &self.files
    }

    /// Number of runs generated so far.
    pub fn runs_generated(&self) -> u64 {
        self.runs_generated
    }

    /// Generates one run of the workload: a looping sequential scan where
    /// each file is read 10–20 times in succession, with a 5 % sprinkle of
    /// writes.
    pub fn next_run(&mut self) -> Vec<WorkloadOp> {
        let mut ops = Vec::new();
        for file in &self.files {
            let repeats = self.rng.gen_range(10..=20);
            for _ in 0..repeats {
                let write = self.rng.gen_bool(WRITE_FRACTION);
                ops.push(WorkloadOp {
                    fid: file.fid,
                    write,
                    bytes: None,
                });
            }
        }
        self.runs_generated += 1;
        ops
    }

    /// Generates one zipf-sampled run: `ops` accesses drawn rank-skewed
    /// over the working set (file index = rank, so file 0 is hottest),
    /// with the same write sprinkle. This is the access mix for
    /// populations far too large to scan sequentially — 100k–1M files
    /// where real traffic concentrates on a hot head.
    ///
    /// # Panics
    ///
    /// Panics if `exponent` is negative, NaN, or infinite.
    pub fn zipf_run(&mut self, ops: usize, exponent: f64) -> Vec<WorkloadOp> {
        let stale = match &self.zipf {
            Some((s, sampler)) => *s != exponent || sampler.len() != self.files.len(),
            None => true,
        };
        if stale {
            self.zipf = Some((exponent, ZipfSampler::new(self.files.len(), exponent)));
        }
        let (_, sampler) = self.zipf.as_ref().expect("sampler built above");
        let mut out = Vec::with_capacity(ops);
        for _ in 0..ops {
            let idx = sampler.sample(&mut self.rng);
            let write = self.rng.gen_bool(WRITE_FRACTION);
            out.push(WorkloadOp {
                fid: self.files[idx].fid,
                write,
                bytes: None,
            });
        }
        self.runs_generated += 1;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_has_24_files_in_size_range() {
        let w = Belle2Workload::new(1);
        assert_eq!(w.files().len(), 24);
        for f in w.files() {
            assert!(
                (MIN_FILE_BYTES..=MAX_FILE_BYTES).contains(&f.size),
                "size {} out of range",
                f.size
            );
        }
    }

    #[test]
    fn sizes_span_a_wide_range() {
        let w = Belle2Workload::new(2);
        let min = w.files().iter().map(|f| f.size).min().unwrap();
        let max = w.files().iter().map(|f| f.size).max().unwrap();
        assert!(max > min * 20, "sizes too uniform: {min}..{max}");
    }

    #[test]
    fn run_visits_each_file_10_to_20_times_in_succession() {
        let mut w = Belle2Workload::new(3);
        let run = w.next_run();
        // Count consecutive-run lengths per file.
        let mut idx = 0;
        let mut seen = Vec::new();
        while idx < run.len() {
            let fid = run[idx].fid;
            let mut count = 0;
            while idx < run.len() && run[idx].fid == fid {
                count += 1;
                idx += 1;
            }
            seen.push((fid, count));
        }
        assert_eq!(seen.len(), 24, "each file appears as one contiguous streak");
        for (fid, count) in seen {
            assert!((10..=20).contains(&count), "{fid} repeated {count} times");
        }
    }

    #[test]
    fn workload_is_read_heavy() {
        let mut w = Belle2Workload::new(4);
        let run = w.next_run();
        let writes = run.iter().filter(|op| op.write).count();
        assert!(
            (writes as f64) < run.len() as f64 * 0.15,
            "too many writes: {writes}/{}",
            run.len()
        );
    }

    #[test]
    fn offset_gives_disjoint_file_ids() {
        let a = Belle2Workload::new(1);
        let b = Belle2Workload::with_params(1, 24, 100);
        let ids_a: Vec<u64> = a.files().iter().map(|f| f.fid.0).collect();
        let ids_b: Vec<u64> = b.files().iter().map(|f| f.fid.0).collect();
        assert!(ids_a.iter().all(|i| !ids_b.contains(i)));
    }

    #[test]
    fn same_seed_reproduces_runs() {
        let mut a = Belle2Workload::new(9);
        let mut b = Belle2Workload::new(9);
        assert_eq!(a.next_run(), b.next_run());
        assert_eq!(a.next_run(), b.next_run());
    }

    #[test]
    #[should_panic(expected = "at least one file")]
    fn zero_files_panics() {
        let _ = Belle2Workload::with_params(0, 0, 0);
    }

    #[test]
    fn zipf_run_is_skewed_deterministic_and_exact_length() {
        let mut a = Belle2Workload::with_params(5, 1_000, 0);
        let mut b = Belle2Workload::with_params(5, 1_000, 0);
        let run_a = a.zipf_run(5_000, 1.0);
        assert_eq!(run_a, b.zipf_run(5_000, 1.0));
        assert_eq!(run_a.len(), 5_000);
        assert_eq!(a.runs_generated(), 1);
        // Low-rank files absorb most traffic under zipf(1.0).
        let head = run_a.iter().filter(|op| op.fid.0 < 10).count();
        assert!(
            head > run_a.len() / 5,
            "head too cold: {head}/{} ops in the top 10 of 1000 files",
            run_a.len()
        );
        // The tail is still visited.
        let distinct: std::collections::BTreeSet<u64> = run_a.iter().map(|op| op.fid.0).collect();
        assert!(
            distinct.len() > 100,
            "only {} distinct files",
            distinct.len()
        );
    }
}
