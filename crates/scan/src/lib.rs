//! Section 4 of the paper at (scaled) Internet scale: synthetic domain
//! population, scan world, scanner, aggregation, and the report
//! generators for every table and figure.
//!
//! The paper resolves 303 M registered domains through Cloudflare DNS
//! and reads the Extended DNS Errors that come back. This crate
//! reproduces that pipeline end-to-end at a configurable scale factor
//! (default 1:1000):
//!
//! 1. [`population`] generates a registered-domain population across
//!    ~1,475 TLDs with misconfigurations *planted* at rates calibrated
//!    to §4.2's observed counts — but the planted conditions are root
//!    causes (a REFUSED nameserver, a missing RRSIG, a stand-by TLD
//!    key), never EDE codes. Each condition is one row of the
//!    [`category`] table;
//! 2. [`world`] materializes the population as a simulated internet of
//!    synthetic-but-faithful servers (a real signed root zone, per-TLD
//!    referral servers, shared hosting servers with per-address fault
//!    modes);
//! 3. [`scanner`] drives a Cloudflare-profile resolver over the whole
//!    input list from a scoped worker pool, one TLD's domains per
//!    claim (collecting live metrics
//!    through the `ede-trace` pipeline), with a revisit pass that
//!    exercises the serve-stale and cached-error paths — each worker
//!    folds its results into a private partial aggregate, merged when
//!    the pass joins, and its records land in a bounded query-log ring
//!    ([`querylog`]), so there is no unbounded outcome buffer;
//! 4. [`aggregate`] and [`stats`] compute the paper's numbers: the
//!    §4.2 per-INFO-CODE inventory, nameserver concentration, Figure 1's
//!    per-TLD CDFs, and Figure 2's Tranco-rank distribution — exposed
//!    as the versioned [`stats::v1::StatsSnapshot`];
//! 5. [`report`] renders each table and figure — the scan's from that
//!    snapshot, Tables 1–4 from the registry and the testbed — [`query`]
//!    filters the query log (live or from JSONL traces), and the
//!    `repro-*` binaries regenerate everything from the command line;
//! 6. [`chaos`] sweeps `ede-netsim` fault-plan intensity over the scan
//!    world (the `repro-chaos` binary) and reports how the EDE-code
//!    inventory shifts under loss, corruption, and truncation, after
//!    checking Table 4 with seven resolutions in flight;
//!    its intensity-0 leg is the plain scan by construction.
//!
//! Every number reported is *measured* through the resolver — the
//! planting only decides what is broken, the pipeline decides what EDE
//! codes that brokenness produces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod category;
pub mod chaos;
pub mod population;
pub mod query;
pub mod querylog;
pub mod report;
pub mod rng;
pub mod scanner;
pub mod stats;
pub mod world;

pub use chaos::{campaign, ChaosConfig, ChaosLeg, ChaosReport};
pub use population::{Category, DomainRecord, Population, PopulationConfig};
pub use query::{FilterSummary, QueryFilter};
pub use querylog::{QueryLog, QueryLogStats, QueryRecord};
pub use scanner::{scan, ScanConfig, ScanConfigBuilder, ScanResult, StreamReport};
pub use stats::v1::StatsSnapshot;
pub use world::ScanWorld;
