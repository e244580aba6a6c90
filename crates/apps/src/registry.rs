//! GitHub package metadata backing Table 2's benchmark-information
//! columns (app TCB LOC, enclosed LOC, stars, contributors, public deps).

/// Metadata for one Table 2 row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchmarkInfo {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Lines of application (trusted) code.
    pub app_tcb_loc: u64,
    /// Lines of enclosed public-package code (0 = stdlib, reported "-").
    pub enclosed_loc: u64,
    /// GitHub stars of the public package (0 = "-").
    pub stars: u64,
    /// Contributor count (0 = "-").
    pub contributors: u64,
    /// Number of public dependency packages (0 = "-").
    pub public_deps: u64,
}

/// The Table 2 information columns, as reported by the paper.
#[must_use]
pub fn table2_info() -> Vec<BenchmarkInfo> {
    vec![
        BenchmarkInfo {
            benchmark: "bild",
            app_tcb_loc: 32,
            enclosed_loc: 166_000,
            stars: 2_900,
            contributors: 15,
            public_deps: 1,
        },
        BenchmarkInfo {
            benchmark: "HTTP",
            app_tcb_loc: 31,
            enclosed_loc: 0, // net/http is stdlib: "-"
            stars: 0,
            contributors: 0,
            public_deps: 0,
        },
        BenchmarkInfo {
            benchmark: "FastHTTP",
            app_tcb_loc: 76,
            enclosed_loc: 374_000,
            stars: 13_100,
            contributors: 100,
            public_deps: 3,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_rows_match_paper() {
        let rows = table2_info();
        assert_eq!(rows.len(), 3);
        let bild = &rows[0];
        assert_eq!(bild.app_tcb_loc, 32);
        assert_eq!(bild.enclosed_loc, 166_000);
        let fasthttp = &rows[2];
        assert_eq!(fasthttp.public_deps, 3);
        assert_eq!(fasthttp.enclosed_loc, 374_000);
    }
}
