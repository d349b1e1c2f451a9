//! # crowddb — crowd-enabled databases with query-driven schema expansion
//!
//! This is the umbrella crate of the reproduction of Selke, Lofi, and Balke,
//! *"Pushing the Boundaries of Crowd-enabled Databases with Query-driven
//! Schema Expansion"* (PVLDB 5(6), 2012).  It re-exports the workspace
//! members so that applications can depend on a single crate:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`relational`] | in-memory relational engine (values, tables, SQL subset, executor) |
//! | [`perceptual`] | rating datasets, Euclidean-embedding and SVD factor models, perceptual spaces |
//! | [`mlkit`] | SVM / SVR / TSVM, LSI, dense linear algebra, evaluation metrics |
//! | [`crowdsim`] | simulated crowd-sourcing platform (workers, HITs, gold questions, majority voting) |
//! | [`datagen`] | synthetic Social-Web domains (movies, restaurants, board games) |
//! | [`storage`] | durable storage engine (checksummed write-ahead log, snapshot/checkpoint files) |
//! | [`crowddb_core`] | the crowd-enabled database: query-driven schema expansion, boosting, HIT auditing |
//! | [`crowddb_server`] | network service layer: multi-client TCP server streaming anytime answers |
//! | [`crowddb_client`] | blocking remote client mirroring the in-process query API |
//!
//! See the repository README for a quickstart, `docs/architecture.md` for
//! the pipeline and concurrency design, and `docs/paper-mapping.md` for the
//! experiment-by-experiment mapping to the paper.
//!
//! ```
//! use crowddb::prelude::*;
//!
//! let domain = SyntheticDomain::generate(&DomainConfig::movies().scaled(0.04), 3).unwrap();
//! let space = build_space_for_domain(&domain, 8, 10).unwrap();
//! let crowd = SimulatedCrowd::new(&domain, ExperimentRegime::TrustedWorkers, 1);
//!
//! let db = CrowdDb::new(CrowdDbConfig::default());
//! db.load_domain("movies", &domain, space, Box::new(crowd)).unwrap();
//! db.register_attribute("movies", "is_comedy", "Comedy").unwrap();
//! let result = db.execute("SELECT name FROM movies WHERE is_comedy = true LIMIT 3").unwrap();
//! assert!(result.rows.len() <= 3);
//! ```

#![warn(missing_docs)]

pub use crowddb_client;
pub use crowddb_core;
pub use crowddb_server;
pub use crowdsim;
pub use datagen;
pub use mlkit;
pub use perceptual;
pub use relational;
pub use storage;
pub use telemetry;

/// Commonly used types, re-exported for convenient glob imports.
pub mod prelude {
    pub use crowddb_client::{ClientConfig, RemoteCrowdDb, RemoteQueryBuilder, RemoteQueryStream};
    pub use crowddb_core::{
        audit_binary_labels, build_space_for_domain, evaluate_boost_over_time,
        extract_binary_attribute, extract_numeric_attribute, repair_labels, Admission,
        AdmissionTicket, AttributeRequest, AuditOutcome, BoostCurve, CacheStats, CatalogRead,
        CellProvenance, CheckpointOptions, CheckpointReport, CheckpointScope, CrowdDb,
        CrowdDbBuilder, CrowdDbConfig, CrowdDbError, CrowdSource, DegradeDirective, DegradeReason,
        ExpansionMode, ExpansionPlan, ExpansionPolicy, ExpansionReport, ExpansionStrategy,
        ExtractionConfig, Grid, JudgmentCache, Limiter, LimiterConfig, LimiterStats, MissingReason,
        OutstandingEstimate, PartitionSpec, PartitionStorage, QueryBuilder, QueryEvent,
        QueryOutcome, QueryStream, RepairOutcome, RowSet, SchedulerStats, Session, SimulatedCrowd,
        StatementResult, StorageStats, TableOptions, TableRef, TableStorage, TenantLimits,
    };
    pub use crowddb_server::{CrowdDbServer, ServerConfig, ServerStats};
    pub use crowdsim::{
        em_aggregate, majority_vote, CrowdPlatform, CrowdRun, EmConfig, EmOutcome,
        ExperimentRegime, HitConfig, ItemPosterior, Judgment, JudgmentResponse, LabelOracle,
        WorkerAccuracyStore, WorkerEstimate, WorkerKind, WorkerPool,
    };
    pub use datagen::{
        CategoryOracle, DomainConfig, ExpertPanel, Item, MetadataGenerator, SyntheticDomain,
    };
    pub use mlkit::{
        gmean, pearson_correlation, BinaryConfusion, Kernel, LabeledDataset, LsiModel,
        SvmClassifier, SvmParams, SvrRegressor, TsvmClassifier,
    };
    pub use perceptual::{
        EuclideanEmbeddingConfig, EuclideanEmbeddingModel, PerceptualSpace, Rating, RatingDataset,
        SvdConfig, SvdModel,
    };
    pub use relational::{Catalog, DataType, QueryResult, Value};
    pub use telemetry::{parse_text, MetricsSnapshot, MonitorTree, StateMonitor};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_reexports_compile() {
        use crate::prelude::*;
        // Touch a few re-exported items to ensure the paths stay valid.
        let _ = ExperimentRegime::all();
        let _ = DomainConfig::movies();
        let _ = Kernel::default();
        let _ = CrowdDbConfig::default();
        let _ = ExpansionStrategy::default();
    }
}
