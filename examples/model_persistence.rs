//! Model persistence: fit once, save the model, reload it in a "serving"
//! phase without retraining, and check that the reloaded model labels a
//! dense grid of queries exactly as the in-memory model does — under both
//! the serial and the parallel batch driver.
//!
//! Run with: `cargo run --release --example model_persistence`

use std::time::Instant;
use tkdc::model_io::{load_model, save_model};
use tkdc::{Classifier, ExecPolicy, Label, Params};
use tkdc_common::Matrix;
use tkdc_data::tmy3;

fn main() {
    // ---- Training phase -------------------------------------------------
    let data = tmy3::generate(50_000, 42)
        .prefix_columns(4)
        .expect("prefix");
    let t0 = Instant::now();
    let clf = Classifier::fit(&data, &Params::default()).expect("fit");
    println!(
        "trained on {} rows in {:.2?}; t(p) = {:.4e}",
        clf.n_train(),
        t0.elapsed(),
        clf.threshold()
    );

    let model_path = std::env::temp_dir().join("tmy3_4d.tkdc");
    save_model(&clf, &model_path).expect("save");
    let bytes = std::fs::metadata(&model_path).expect("stat").len();
    println!(
        "model saved to {} ({:.1} MiB)",
        model_path.display(),
        bytes as f64 / (1 << 20) as f64
    );

    // ---- Serving phase ---------------------------------------------------
    let t1 = Instant::now();
    let served = load_model(&model_path).expect("load");
    println!("model reloaded in {:.2?} (no retraining)", t1.elapsed());
    assert_eq!(
        served.threshold().to_bits(),
        clf.threshold().to_bits(),
        "the threshold must survive the round trip bit for bit"
    );

    // A dense grid of queries across the two leading load channels, with
    // the remaining channels fixed at their midpoints: a contour-render
    // workload.
    let (mins, maxs) = data.column_bounds();
    let mid2 = 0.5 * (mins[2] + maxs[2]);
    let mid3 = 0.5 * (mins[3] + maxs[3]);
    let mut queries = Matrix::with_cols(4);
    let grid = 120usize;
    for i in 0..grid {
        for j in 0..grid {
            let x = mins[0] + (maxs[0] - mins[0]) * i as f64 / (grid - 1) as f64;
            let y = mins[1] + (maxs[1] - mins[1]) * j as f64 / (grid - 1) as f64;
            queries.push_row(&[x, y, mid2, mid3]).expect("push");
        }
    }

    let (in_memory, _) = clf
        .classify_batch_with(&queries, ExecPolicy::Serial)
        .expect("in-memory");

    let t2 = Instant::now();
    let (serial, _) = served
        .classify_batch_with(&queries, ExecPolicy::Serial)
        .expect("serial");
    let serial_time = t2.elapsed();

    let t3 = Instant::now();
    let (parallel, _) = served
        .classify_batch_with(&queries, ExecPolicy::Parallel { threads: None })
        .expect("parallel");
    let parallel_time = t3.elapsed();

    assert_eq!(
        serial, in_memory,
        "the reloaded model must label exactly as the in-memory model"
    );
    assert_eq!(
        parallel, serial,
        "the parallel driver must label exactly as the serial one"
    );

    let high = serial.iter().filter(|&&l| l == Label::High).count();
    println!(
        "\nclassified {} grid queries with the reloaded model: {high} HIGH / {} LOW",
        queries.rows(),
        queries.rows() - high
    );
    println!("  serial batch:   {serial_time:.2?}");
    println!("  parallel batch: {parallel_time:.2?}");
    println!("  labels identical to the in-memory model under both drivers");
    std::fs::remove_file(&model_path).ok();
}
