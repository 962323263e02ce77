//! Smoke test for the `sec` facade crate: every advertised re-export must be
//! reachable through `sec::...` paths alone, and the re-exported types must
//! interoperate end-to-end (encode → store → fail → retrieve → analyze).

use sec::analysis::patterns::census;
use sec::engine::{ClusterMetrics, EngineMetrics, EngineRetrieval};
use sec::erasure::{CodeError, DecodeMethod, ReadPlan, ReadTarget, Share};
use sec::gf::{GaloisField, Gf256};
use sec::linalg::{cauchy::cauchy_matrix, checks, Matrix, MatrixError};
use sec::store::{FailurePattern, IoMetrics, Placement, StorageNode};
use sec::versioning::{BytePrefixRetrieval, ByteVersionRetrieval, VersioningError};
use sec::workload::{EditModel, TraceConfig, VersionTrace};
use sec::{
    ArchiveConfig, ByteVersionedArchive, CodeParams, EncodingStrategy, GeneratorForm, IoModel, ObjectId,
    PlacementStrategy, SecCluster, SecCode, SecEngine, SparsityPmf,
};

/// Every crate-root re-export participates in one end-to-end flow.
#[test]
fn facade_types_interoperate_end_to_end() {
    // erasure: code construction + direct encode/decode via facade paths.
    let code: SecCode<Gf256> = SecCode::cauchy(6, 3, GeneratorForm::NonSystematic).expect("code builds");
    let params: CodeParams = code.params();
    assert_eq!((params.n, params.k), (6, 3));
    let delta = vec![Gf256::from_u64(42), Gf256::ZERO, Gf256::ZERO];
    let codeword = code.encode(&delta).expect("encode");
    let shares: Vec<Share<Gf256>> = vec![(5, codeword[5]), (2, codeword[2])];
    assert_eq!(code.decode_sparse(&shares, 1).expect("sparse decode"), delta);

    // versioning: archive two versions, check the io model agrees.
    let config = ArchiveConfig::new(6, 3, GeneratorForm::NonSystematic, EncodingStrategy::BasicSec)
        .expect("valid config");
    let mut archive = ByteVersionedArchive::new(config).expect("archive");
    let v1 = vec![3u8, 1, 4, 1, 5, 9];
    let mut v2 = v1.clone();
    v2[2] = 59; // second of three 2-byte blocks
    archive.append_all(&[v1.clone(), v2.clone()]).expect("append");
    let prefix: BytePrefixRetrieval = archive.retrieve_prefix(2).expect("prefix");
    assert_eq!(prefix.io_reads, 5); // k + 2γ = 3 + 2
    let model: IoModel = archive.config().io_model();
    assert_eq!(
        model.prefix_reads(EncodingStrategy::BasicSec, archive.sparsity_profile(), 2),
        prefix.io_reads
    );

    // store: colocated placement, a node failure, failure-aware retrieval.
    let placement = Placement::new(PlacementStrategy::Colocated, 6, archive.layout().len());
    let pattern = FailurePattern::with_failures(placement.node_count(), &[0]);
    let live = |entry, position| {
        placement
            .try_node_for(entry, position)
            .is_ok_and(|node| !pattern.is_failed(node))
    };
    let retrieved: ByteVersionRetrieval = archive.retrieve_version_from(2, live).expect("retrieve");
    assert_eq!(retrieved.data, v2);
    assert_eq!(retrieved.io_reads, prefix.io_reads);
    assert_eq!(StorageNode::default().reads(), 0);

    // engine: the concurrent serving layer over the same configuration.
    let engine = SecEngine::new(config).expect("engine");
    engine.append_version(&[1, 2, 3, 4, 5, 6]).expect("append v1");
    engine.append_version(&[1, 2, 9, 4, 5, 6]).expect("append v2");
    engine.fail_node(0).expect("node 0 is in range");
    assert!(
        engine.fail_node(99).is_err(),
        "bad node ids are errors, not panics"
    );
    let served: EngineRetrieval = engine.get_version(2).expect("engine retrieval");
    assert_eq!(*served.data, vec![1, 2, 9, 4, 5, 6]);
    let engine_metrics: EngineMetrics = engine.metrics_snapshot();
    assert_eq!(engine_metrics.live_nodes, 5);
    let io: IoMetrics = engine_metrics.io;
    assert!(io.symbol_reads > 0);
    assert_eq!(engine.placement(), placement);

    // cluster: the sharded multi-archive router over per-object engines.
    let cluster = SecCluster::new(config, 4).expect("cluster");
    let object = ObjectId::from_name("facade/smoke");
    cluster
        .append_version(object, &[1, 2, 3, 4, 5, 6])
        .expect("cluster append");
    assert_eq!(
        *cluster.get_version(object, 1).expect("cluster read").data,
        vec![1, 2, 3, 4, 5, 6]
    );
    let shard = cluster.shard_of(object);
    cluster.fail_node(shard, 1).expect("valid address");
    assert!(cluster.fail_node(99, 0).is_err());
    let cluster_metrics: ClusterMetrics = cluster.metrics_snapshot();
    assert_eq!(cluster_metrics.objects, 1);
    assert_eq!(cluster_metrics.shards[shard].live_nodes, 5);

    // analysis: §IV-C pattern census through the facade path.
    let census_ns = census(&code, 1);
    assert_eq!(census_ns.total_patterns, 63);

    // workload: PMFs and synthetic traces.
    let pmf: SparsityPmf = SparsityPmf::truncated_exponential(0.6, 3).expect("pmf");
    assert!((pmf.probabilities().iter().sum::<f64>() - 1.0).abs() < 1e-12);
    let trace_config = TraceConfig::new(3, 4, EditModel::Localized { max_run: 2 });
    assert_eq!(trace_config.versions, 4);
    let _: fn(&TraceConfig, &mut rand::rngs::StdRng) -> VersionTrace<Gf256> = VersionTrace::generate;
}

/// Re-exported auxiliary types and the whole-module re-exports stay reachable.
#[test]
fn facade_module_reexports_are_reachable() {
    // gf: the one field.
    assert_eq!(Gf256::ORDER, 256);

    // linalg: Cauchy construction satisfies both SEC criteria.
    let g: Matrix<Gf256> = cauchy_matrix(6, 3).expect("cauchy");
    assert!(checks::has_invertible_k_submatrix(&g));
    let bad: Result<Matrix<Gf256>, MatrixError> = Matrix::from_vec(2, 2, vec![Gf256::ZERO]);
    assert!(bad.is_err());

    // erasure auxiliaries: read planning vocabulary, errors.
    let target = ReadTarget::Sparse { gamma: 1 };
    assert!(matches!(target, ReadTarget::Sparse { gamma: 1 }));
    let plan = ReadPlan {
        nodes: vec![0, 1],
        io_reads: 2,
        method: DecodeMethod::SparseRecovery,
    };
    assert_eq!(plan.io_reads, 2);
    let err: CodeError = CodeError::DataLengthMismatch {
        expected: 3,
        actual: 2,
    };
    assert!(!err.to_string().is_empty());

    // versioning auxiliaries: error and retrieval types.
    let config = ArchiveConfig::new(4, 2, GeneratorForm::Systematic, EncodingStrategy::NonDifferential)
        .expect("valid config");
    let mut archive = ByteVersionedArchive::new(config).expect("archive");
    let missing: Result<ByteVersionRetrieval, VersioningError> = archive.retrieve_version(1);
    assert!(missing.is_err());
    archive.append_version(&[1, 0]).expect("append");
    assert_eq!(archive.retrieve_version(1).expect("v1").io_reads, 2);
}
