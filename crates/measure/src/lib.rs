//! # cloudia-measure — pairwise latency measurement
//!
//! Implements §5 of the ClouDiA paper: before searching for a deployment,
//! ClouDiA must estimate the mean round-trip latency of every ordered pair
//! of allocated instances, quickly and without introducing measurement
//! artifacts. Three schemes are provided, in increasing sophistication:
//!
//! * [`TokenPassing`] — one probe in flight globally; perfectly clean but
//!   serial (the accuracy baseline of paper Fig. 4);
//! * [`Uncoordinated`] — every instance probes random destinations
//!   independently; embarrassingly parallel but endpoint collisions inflate
//!   some links' estimates;
//! * [`Staged`] — a coordinator schedules disjoint pairs per stage
//!   (round-robin tournament), giving token-level accuracy at
//!   uncoordinated-level parallelism;
//! * [`FocusedScheme`] — executes an explicit [`ProbePlan`] (candidate
//!   cliques, detector-flagged links, staleness refreshes) with the staged
//!   discipline: O(K² + flagged) probe pairs instead of O(m²), for callers
//!   — like the online advisor — that already know where to look.
//!
//! Every scheme executes through the **stage-streaming driver layer**
//! ([`driver`]): [`Scheme::driver`] returns a resumable [`SweepDriver`]
//! whose stages can be stepped one at a time with the partial statistics
//! inspectable in between, and [`Scheme::run_onto`] is a thin
//! drive-to-completion wrapper over it. A [`PruneRule`] evaluated between
//! stages ([`run_pruned`]) can drop pairs mid-sweep once their measured
//! quantiles prove them irrelevant — the tournament shrinks while it is
//! still in flight.
//!
//! Per-link summaries (mean via Welford, p99 via the P² algorithm) feed the
//! three cost metrics of §3.2. [`approx`] holds the Appendix-2 IP-distance
//! and hop-count proxies (negative results), and [`error`] the vector
//! comparison used to score scheme accuracy.
//!
//! ```
//! use cloudia_netsim::{Cloud, Provider};
//! use cloudia_measure::{MeasureConfig, Scheme, Staged};
//!
//! let mut cloud = Cloud::boot(Provider::ec2_like(), 1);
//! let alloc = cloud.allocate(10);
//! let net = cloud.network(&alloc);
//! let report = Staged::new(5, 2).run(&net, &MeasureConfig::default());
//! assert_eq!(report.stats.covered_links(), 10 * 9);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod approx;
pub mod ci;
pub mod driver;
pub mod error;
pub mod focused;
pub mod pairs;
pub mod pool;
pub mod scheme;
pub mod staged;
pub mod stats;
pub mod token;
pub mod uncoordinated;

pub use ci::{t_critical, LinkCi};
pub use driver::{
    run_anytime, run_pruned, AnytimeReport, PruneRule, PrunedReport, StopRule, SweepDriver,
};
pub use focused::{FocusedScheme, ProbePlan};
pub use pairs::PairSet;
pub use pool::{PoolStats, SweepPool};
pub use scheme::{MeasureConfig, MeasurementReport, Scheme, Snapshot};
pub use staged::Staged;
pub use stats::{LinkBatch, LinkEstimate, P2Quantile, PairwiseStats, Welford};
pub use token::TokenPassing;
pub use uncoordinated::Uncoordinated;
