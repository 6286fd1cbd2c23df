//! The names the benchmark may print.  `BENCHMARK.json` lists the same names
//! and units, plus each metric's direction and bound; a test keeps the two in
//! step.

/// The workloads; `BENCHMARK.json` and README.md say why each exists.
pub const WORKLOADS: [&str; 4] = ["client_topk", "serve_warm", "serve_cold", "ingest_mixed"];

/// A printed metric and its unit.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn metric(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// What a user of the system sees.  Every one is defined, and never 0, on
/// every workload; `BENCHMARK.json` fixes by how much each may worsen.
pub const END_TO_END: [Metric; 10] = [
    metric("setup_s", "s"),
    metric("ops_per_s", "op/s"),
    metric("op_p50_us", "us"),
    metric("op_p95_us", "us"),
    metric("read_p95_us", "us"),
    metric("wire_bytes_per_op", "bytes"),
    metric("requests_per_op", "count"),
    metric("elements_per_op", "count"),
    metric("resident_bytes_per_element", "bytes"),
    metric("footprint_bytes_per_element", "bytes"),
];

/// Metrics of single layers (layer = crate or module), printed by every
/// traced run; one the workload does not exercise reads 0.
pub const PER_LAYER: [Metric; 52] = [
    metric("crypto.aead_open_ns", "ns"),
    metric("crypto.aead_seal_ns", "ns"),
    metric("crypto.hmac_token_ns", "ns"),
    metric("zerber.elements_opened_per_query", "count"),
    metric("zerber.useful_open_ratio", "ratio"),
    metric("zerber_r.rstf_transform_ns", "ns"),
    metric("zerber_r.retrieve_topk_us", "us"),
    metric("zerber_r.query_efficiency", "ratio"),
    metric("zerber_r.exact_topk_ratio", "ratio"),
    metric("index.topk_push_ns", "ns"),
    metric("index.plain_topk_us", "us"),
    metric("store.fetch_us", "us"),
    metric("store.fetch_hit_us", "us"),
    metric("store.fetch_fault_us", "us"),
    metric("store.fetch_share", "ratio"),
    metric("store.lock_acquisitions_per_request", "count"),
    metric("store.visibility_scan_per_request", "count"),
    metric("store.page_faults_per_op", "count"),
    metric("store.page_cache_hit_rate", "ratio"),
    metric("store.page_evictions_per_op", "count"),
    metric("store.insert_us", "us"),
    metric("store.wal_bytes_per_insert", "bytes"),
    metric("store.wal_appends_per_insert", "count"),
    metric("store.checkpoints_per_insert", "count"),
    metric("store.checkpoint_s", "s"),
    metric("store.compactions_per_insert", "count"),
    metric("store.promotions_per_insert", "count"),
    metric("store.demotions_per_insert", "count"),
    metric("store.dead_page_ratio", "ratio"),
    metric("store.write_amp", "ratio"),
    metric("store.disk_bytes_per_element", "bytes"),
    metric("store.recovery_s", "s"),
    metric("store.recovered_pages", "count"),
    metric("store.recovery_elements_per_s", "1/s"),
    metric("store.replica_catchup_s", "s"),
    metric("store.replica_snapshot_s", "s"),
    metric("store.replica_tail_frames_per_s", "1/s"),
    metric("store.replica_frames_skipped", "count"),
    metric("protocol.auth_checks_per_request", "count"),
    metric("protocol.server_self_us", "us"),
    metric("protocol.client_self_us", "us"),
    metric("protocol.client_single_us", "us"),
    metric("protocol.client_multi_us", "us"),
    metric("protocol.insert_self_us", "us"),
    metric("protocol.bytes_out_per_query", "bytes"),
    metric("protocol.bytes_in_per_query", "bytes"),
    metric("protocol.modelled_56k_latency_ms", "ms"),
    metric("protocol.open_cursors_after", "count"),
    metric("trace.overhead", "ratio"),
    metric("trace.children_within_parent", "ratio"),
    metric("trace.spans_per_op", "count"),
    metric("trace.baseline_ops_per_s", "op/s"),
];
