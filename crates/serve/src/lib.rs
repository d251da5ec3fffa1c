//! # ocular-serve
//!
//! The online serving subsystem for the OCuLaR reproduction — the piece
//! that turns trained co-cluster factors into a request-path engine, per
//! the paper's scalability pitch (*"Scalable and interpretable product
//! recommendations via overlapping co-clustering"*, Heckel et al., ICDE
//! 2017, Sections IV-C and VIII).
//!
//! ## What serving adds over batch evaluation
//!
//! * **Snapshots** ([`snapshot`]) — versioned, **kind-tagged** on-disk
//!   artifacts with truncation/corruption detection, written in one
//!   format: the **mmap-able binary container** (`ocular-snapshot v3`)
//!   whose factor matrices, cluster-index CSR and id-map tables are
//!   **borrowed zero-copy** from the mapped file at engine start. Every
//!   model kind in the workspace zoo (`ocular`, `wals`, `bpr`,
//!   `user-knn`, `item-knn`, `popularity`) encodes through
//!   [`ocular_api::SnapshotModel`] and loads back through
//!   [`AnySnapshot`]; legacy v1/v2 text snapshots are import-only
//!   ([`AnySnapshot::import_text`], picked by magic-byte sniffing).
//! * **Candidate generation** ([`index`]) — per-cluster inverted item
//!   lists built once at load; a request scores only items reachable from
//!   the requester's co-clusters, with a full-catalog fallback knob
//!   ([`CandidatePolicy`]).
//! * **Bounded-heap selection** — top-M via
//!   [`ocular_core::topm`], `O(candidates · log M)` instead of a full
//!   sort; in [`CandidatePolicy::FullCatalog`] mode the served lists are
//!   **bitwise identical** to [`ocular_core::recommend_top_m`].
//! * **Cold start** — unseen users are folded in at request time
//!   (OCuLaR via [`ocular_core::fold_in_user`]; other kinds through their
//!   [`ocular_api::FoldIn`] capability, with a typed
//!   [`ocular_api::OcularError::Unsupported`] answer where the algorithm
//!   admits none), then served through the same selection path.
//! * **Batching** ([`ServeEngine::serve_batch`]) — rayon-parallel over
//!   requests, deterministic in request order and output regardless of
//!   thread count.
//! * **A CLI** (`serve` binary) — JSON-lines requests on stdin, JSON-lines
//!   responses on stdout, plus a `--train` mode that fits a model from an
//!   edge list and writes a v3 snapshot, and `--inspect` to print what a
//!   snapshot holds. See the README's *Serving* section.
//!
//! ## Example
//!
//! ```
//! use ocular_serve::Request;
//! use ocular_core::{fit, OcularConfig};
//! use ocular_sparse::io::read_edge_list_str;
//!
//! // ingestion → Dataset: external ids compacted, id maps kept
//! let r = read_edge_list_str(
//!     "100\t7\n100\t8\n200\t7\n200\t8\n300\t55\n300\t56\n400\t55\n400\t56\n",
//!     "\t", None,
//! ).unwrap().into_dataset();
//! let model = fit(&r, &OcularConfig { k: 2, lambda: 0.05, seed: 7, ..Default::default() }).model;
//! let engine = ocular_serve::EngineBuilder::from_model(model).dataset(r).build().unwrap();
//! // requests can arrive with the ingestion-time external ids
//! let out = engine.serve_one(&Request::WarmExternal { user: 100, m: 2 }).unwrap();
//! assert_eq!(out.items.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod index;
pub mod json;
pub mod net;
pub mod protocol;
pub mod shard;
pub mod snapshot;
pub mod swap;

pub use engine::{
    CandidatePolicy, EngineBuilder, Request, ServeConfig, ServeEngine, ServeError, ServedList,
};
pub use index::{ClusterIndex, IndexConfig};
pub use protocol::{WireError, WireReply, WireRequest, WireResponse, PROTOCOL_VERSION};
pub use shard::{AnyEngine, ShardStat, ShardedEngine};
pub use snapshot::{
    shard_path, AnySnapshot, LoadedSnapshot, ShardedLoad, Snapshot, SnapshotShard, OCULAR_KIND,
};
// re-exported so CLI/transport layers name the quantized dtypes without a
// direct linalg dependency
pub use ocular_linalg::{QuantDtype, QuantizedFactors};
pub use swap::SwapEngine;
