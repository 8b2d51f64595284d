//! Every call the benchmark makes into `tkdc`, `tkdc-serve`,
//! `tkdc-coreset`, `tkdc-index` and `tkdc-kernel` goes through this
//! module, one function per call, with no logic of its own. When the
//! program's public API changes, this is the one file to edit. `Matrix`
//! and `Rng`, the plain value types of `tkdc-common`, are built here and
//! read directly elsewhere.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

pub use tkdc::engine::PoolTelemetry;
pub use tkdc::threshold::BootstrapReport;
pub use tkdc::{Classifier, ExecPolicy, Label, Params, QueryScratch, QueryStats};
pub use tkdc_common::{Matrix, Result, Rng};
pub use tkdc_coreset::WeightedCoreset;
pub use tkdc_index::{BandwidthGrid, KdTree};
pub use tkdc_kernel::Kernel;
pub use tkdc_serve::protocol::{Request, Response, StatsSnapshot};
pub use tkdc_serve::server::ServerHandle;
pub use tkdc_serve::Client;

use tkdc_coreset::{CompactorKind, CoresetConfig, StreamingCoreset};
use tkdc_serve::protocol::{read_request, read_response, write_request, write_response};
use tkdc_serve::{ServeConfig, Server};

// ----- tkdc-common ---------------------------------------------------

pub fn rng(seed: u64) -> Rng {
    Rng::seed_from(seed)
}

pub fn matrix_from_vec(data: Vec<f64>, rows: usize, cols: usize) -> Result<Matrix> {
    Matrix::from_vec(data, rows, cols)
}

// ----- tkdc: fit -----------------------------------------------------

/// Default task parameters (p = 0.01, ε = 0.01, δ = 0.01, Gaussian
/// kernel, tree backend) with the grid cache switched on or off.
pub fn params(grid: bool) -> Params {
    let mut p = Params::default();
    p.opts.grid = grid;
    p
}

pub fn parallel(threads: usize) -> ExecPolicy {
    ExecPolicy::with_threads(threads)
}

pub fn serial() -> ExecPolicy {
    ExecPolicy::Serial
}

pub fn fit(train: &Matrix, params: &Params, policy: ExecPolicy) -> Result<Classifier> {
    Classifier::fit_with(train, params, policy)
}

pub fn fit_weighted(
    cs: &WeightedCoreset,
    params: &Params,
    policy: ExecPolicy,
) -> Result<Classifier> {
    Classifier::fit_weighted_with(&cs.points, &cs.weights, cs.eps, params, policy)
}

pub fn bootstrap(
    train: &Matrix,
    params: &Params,
    policy: ExecPolicy,
) -> Result<(tkdc::ThresholdBounds, BootstrapReport)> {
    tkdc::threshold::bound_threshold_with(train, params, policy)
}

// ----- tkdc: classify ------------------------------------------------

pub fn classify_batch(
    clf: &Classifier,
    queries: Arc<Matrix>,
    policy: ExecPolicy,
) -> Result<(Vec<Label>, QueryStats)> {
    clf.classify_batch_shared(queries, policy)
}

pub fn classify_one(clf: &Classifier, x: &[f64], scratch: &mut QueryScratch) -> Result<Label> {
    clf.classify_with(x, scratch)
}

pub fn exact_density(clf: &Classifier, x: &[f64]) -> Result<f64> {
    clf.exact_density(x)
}

pub fn threshold(clf: &Classifier) -> f64 {
    clf.threshold()
}

pub fn epsilon(clf: &Classifier) -> f64 {
    clf.params().epsilon
}

pub fn coreset_fold(clf: &Classifier) -> f64 {
    clf.coreset_eps_abs()
}

pub fn kernel(clf: &Classifier) -> &Kernel {
    clf.kernel()
}

pub fn tree(clf: &Classifier) -> Option<&KdTree> {
    clf.tree()
}

pub fn grid_enabled(clf: &Classifier) -> bool {
    clf.grid_enabled()
}

pub fn pool_telemetry(clf: &Classifier) -> PoolTelemetry {
    clf.pool_telemetry()
}

pub fn new_scratch() -> QueryScratch {
    QueryScratch::new()
}

// ----- tkdc: model_io ------------------------------------------------

pub fn save(clf: &Classifier, out: &mut Vec<u8>) -> Result<()> {
    tkdc::model_io::save_model_to(clf, out)
}

pub fn load(bytes: &[u8]) -> Result<Classifier> {
    tkdc::model_io::load_model_from(bytes)
}

// ----- tkdc-coreset --------------------------------------------------

/// Streams `rows` through a `StreamingCoreset` at accuracy `eps` with
/// the compactor the CLI picks for the dimension.
pub fn compact(rows: &Matrix, eps: f64) -> Result<WeightedCoreset> {
    let mut cfg = CoresetConfig::new(eps);
    cfg.kind = CompactorKind::auto_for_dim(rows.cols());
    let mut sc = StreamingCoreset::new(rows.cols(), cfg)?;
    sc.push_matrix(rows)?;
    sc.finish()
}

// ----- tkdc-index ----------------------------------------------------

pub fn tree_build(train: &Matrix, params: &Params) -> Result<KdTree> {
    KdTree::build(train, params.leaf_size, params.opts.split_rule())
}

pub fn tree_build_weighted(cs: &WeightedCoreset, params: &Params) -> Result<KdTree> {
    KdTree::build_weighted(
        &cs.points,
        &cs.weights,
        params.leaf_size,
        params.opts.split_rule(),
    )
}

pub fn grid_build(train: &Matrix, kernel: &Kernel) -> Result<BandwidthGrid> {
    BandwidthGrid::build(train, kernel.bandwidths())
}

pub fn node_count(tree: &KdTree) -> usize {
    tree.node_count()
}

pub fn is_leaf(tree: &KdTree, id: u32) -> bool {
    tree.is_leaf(id)
}

pub fn leaf_rows(tree: &KdTree, id: u32) -> usize {
    tree.count(id)
}

// ----- tkdc-kernel ---------------------------------------------------

/// One leaf's kernel sum through the SoA leaf kernel the traversal uses
/// (the weighted twin on a weighted tree).
pub fn leaf_sum(kernel: &Kernel, tree: &KdTree, id: u32, x: &[f64]) -> f64 {
    let soa = tree.node_block_soa(id);
    match tree.node_weights(id) {
        Some(w) => kernel.sum_block_soa_weighted(x, soa, tree.count(id), w),
        None => kernel.sum_block_soa(x, soa, tree.count(id)),
    }
}

/// Unnormalised-by-n kernel sum of `x` against row-major `rows`.
pub fn kernel_sum_rows(kernel: &Kernel, x: &[f64], rows: &Matrix) -> f64 {
    kernel.sum_block(x, rows.as_slice())
}

// ----- tkdc-serve ----------------------------------------------------

pub fn bind(clf: Classifier, threads: usize, timeout: Duration) -> Result<Server> {
    let cfg = ServeConfig {
        threads: Some(threads),
        timeout,
        ..ServeConfig::default()
    };
    Server::bind(cfg, clf)
}

pub fn spawn(server: Server) -> ServerHandle {
    server.spawn()
}

pub fn server_addr(handle: &ServerHandle) -> SocketAddr {
    handle.addr()
}

pub fn join(handle: ServerHandle) -> Result<()> {
    handle.join()
}

pub fn connect(addr: &str, timeout: Duration) -> Result<Client> {
    Client::connect_with_timeout(addr, timeout)
}

pub fn remote_classify(client: &mut Client, points: &Matrix) -> Result<Vec<Label>> {
    client.classify(points)
}

pub fn remote_ping(client: &mut Client) -> Result<()> {
    client.ping()
}

pub fn remote_stats(client: &mut Client) -> Result<StatsSnapshot> {
    client.stats()
}

pub fn remote_shutdown(client: &mut Client) -> Result<()> {
    client.shutdown()
}

// ----- tkdc-serve: protocol frames in memory -------------------------

pub fn classify_request(points: &Matrix) -> Request {
    Request::Classify {
        points: points.clone(),
    }
}

pub fn labels_response(labels: &[Label]) -> Response {
    Response::Labels(labels.to_vec())
}

pub fn encode_request(req: &Request, out: &mut Vec<u8>) -> Result<()> {
    write_request(out, req)
}

pub fn decode_request(mut frame: &[u8]) -> Result<Option<Request>> {
    read_request(&mut frame)
}

pub fn encode_response(resp: &Response, out: &mut Vec<u8>) -> Result<()> {
    write_response(out, resp)
}

pub fn decode_response(mut frame: &[u8]) -> Result<Option<Response>> {
    read_response(&mut frame)
}
