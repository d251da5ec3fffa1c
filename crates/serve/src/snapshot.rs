//! Versioned serving snapshots — kind-tagged and polymorphic over model
//! kinds.
//!
//! A snapshot is what training ships to the serving tier, and the one
//! format the workspace writes is the **v3 binary container**
//! ([`ocular_api::binary`]): magic + kind tag + 8-aligned little-endian
//! sections + trailing checksum. [`AnySnapshot::to_v3_bytes_full`]
//! encodes one; [`AnySnapshot::load_path_full`] memory-maps a file and
//! the loaded `FactorModel` / [`ClusterIndex`] / [`IdMaps`] **borrow**
//! their large buffers from the mapping ([`AnySnapshot::load_v3_full`]),
//! so engine start-up allocates nothing per payload and N serve
//! processes share one page cache.
//!
//! Besides each kind's own sections ([`SnapshotModel::write_sections`]),
//! a container optionally carries the training
//! [`Dataset`](ocular_sparse::Dataset)'s external↔internal id tables (so
//! requests addressed by external ids resolve without the raw
//! interaction file), the live-refresh metadata (generation + source-data
//! watermark, [`SnapshotMeta`]), and for `kind = ocular` the co-cluster
//! candidate index plus an optional quantized copy of the item factors.
//!
//! ## Importing v1/v2 text snapshots
//!
//! Snapshots written before v3 are line-oriented text, and they are
//! **import-only**: [`AnySnapshot::import_text`] parses them (and
//! [`AnySnapshot::load_path_full`] takes that path whenever a file does
//! not start with the v3 magic), but nothing in the workspace writes
//! them — re-encode an import with [`AnySnapshot::to_v3_bytes_full`] to
//! migrate it. The envelope is
//!
//! ```text
//! ocular-snapshot v2 <kind>           (v1: `ocular-snapshot v1`, kind ocular)
//! <kind-specific model payload, self-delimiting>
//! [cocluster-index v1 <n_clusters> <n_items> <rel>      (kind = ocular only)
//!  <n_clusters lines: "<len> <ascending item ids>">]
//! [snapshot-meta v1 <generation> <n_users> <n_items> <nnz>   (optional)]
//! [id-maps v1 <n_users> <n_items>                       (optional)
//!  <n_users external user ids, one line>
//!  <n_items external item ids, one line>]
//! ocular-snapshot end
//! ```
//!
//! where each kind's payload is parsed by its
//! [`SnapshotModel::load_model`] (`ocular-model v1`, `wals-model v1`, …).
//! The trailing sentinel makes truncation detectable: a file cut off
//! anywhere before it is rejected instead of mis-loading. `serve
//! --inspect` prints what a snapshot of either era holds.

use crate::index::{ClusterIndex, IndexConfig};
use ocular_api::binary::{is_v3, SectionReader, SectionWriter, SnapshotMeta};
use ocular_api::textio::{bad, read_line};
use ocular_api::{Model, OcularError, SnapshotModel};
use ocular_baselines::{Bpr, ItemKnn, Popularity, UserKnn, Wals};
use ocular_bytes::{shard_of_key, ModelBytes};
use ocular_core::FactorModel;
use ocular_linalg::{Matrix, QuantDtype, QuantizedFactors};
use ocular_sparse::{IdMaps, RawIdTable};
use std::io::{BufRead, Read, Seek};
use std::path::{Path, PathBuf};

/// Magic first line of the legacy (OCuLaR-only) v1 text envelope.
const V1_HEADER: &str = "ocular-snapshot v1";
/// Prefix of the kind-tagged v2 text envelope header.
const V2_PREFIX: &str = "ocular-snapshot v2";
/// Magic line opening the text index section.
const INDEX_HEADER: &str = "cocluster-index v1";
/// Magic line opening the optional text external-id-maps section.
const IDS_HEADER: &str = "id-maps v1";
/// Magic line opening the optional text live-refresh metadata section.
const META_HEADER: &str = "snapshot-meta v1";
/// Trailing sentinel proving a text snapshot was written to completion.
const FOOTER: &str = "ocular-snapshot end";
/// The kind tag of OCuLaR snapshots (canonically defined on
/// [`FactorModel::KIND`], mirrored here for dispatch).
pub const OCULAR_KIND: &str = FactorModel::KIND;

/// An OCuLaR serving snapshot: the fitted factor model plus its
/// candidate-generation index.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The fitted factor model.
    pub model: FactorModel,
    /// Per-cluster inverted item lists built at snapshot time.
    pub index: ClusterIndex,
    /// Optional quantized item factors (`f32` or per-row affine `int8`)
    /// for the serving fast path, derived from the f64 master by
    /// [`Snapshot::with_quantization`] and stored as extra v3 sections.
    /// Imported v1/v2 text snapshots predate quantization and carry none.
    pub quant: Option<QuantizedFactors>,
}

impl Snapshot {
    /// Builds a snapshot from a fitted model, deriving the index with the
    /// given build parameters (see [`ClusterIndex::build`]).
    pub fn build(model: FactorModel, cfg: &IndexConfig) -> Self {
        let index = ClusterIndex::build(&model, cfg);
        Snapshot {
            model,
            index,
            quant: None,
        }
    }

    /// Attaches a quantized copy of the item factors, derived from the
    /// f64 master. Serving engines built from this snapshot score the
    /// catalog through the matching blocked kernel
    /// ([`QuantizedFactors::score_block`]) instead of the f64 path.
    pub fn with_quantization(mut self, dtype: QuantDtype) -> Self {
        self.quant = Some(QuantizedFactors::quantize(&self.model.item_factors, dtype));
        self
    }

    /// Parses the OCuLaR text payload — the `ocular-model v1` factors,
    /// then the index section — validating the index's shape, bounds and
    /// ordering against the model.
    fn import_payload(r: &mut dyn BufRead) -> Result<Snapshot, OcularError> {
        let model = FactorModel::load_model(r)?;

        let header = read_line(r)?;
        let rest = header
            .strip_prefix(INDEX_HEADER)
            .ok_or_else(|| bad(format!("bad index header, expected `{INDEX_HEADER} …`")))?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let [n_clusters, n_items, rel] = fields[..] else {
            return Err(bad("index header needs n_clusters n_items rel"));
        };
        let n_clusters: usize = n_clusters
            .parse()
            .map_err(|_| bad("bad index n_clusters"))?;
        let n_items: usize = n_items.parse().map_err(|_| bad("bad index n_items"))?;
        let rel: f64 = rel.parse().map_err(|_| bad("bad index rel cutoff"))?;
        if n_clusters != model.n_clusters() {
            return Err(bad(format!(
                "index has {n_clusters} clusters but model has {}",
                model.n_clusters()
            )));
        }
        if n_items != model.n_items() {
            return Err(bad(format!(
                "index covers {n_items} items but model has {}",
                model.n_items()
            )));
        }

        let mut items = Vec::with_capacity(n_clusters);
        for c in 0..n_clusters {
            let line = read_line(r)?;
            let mut fields = line.split_whitespace();
            let len: usize = fields
                .next()
                .and_then(|f| f.parse().ok())
                .ok_or_else(|| bad(format!("cluster {c}: bad list length")))?;
            let list: Vec<u32> = fields
                .map(|f| f.parse::<u32>())
                .collect::<Result<_, _>>()
                .map_err(|_| bad(format!("cluster {c}: bad item id")))?;
            if list.len() != len {
                return Err(bad(format!(
                    "cluster {c}: declared {len} items, found {}",
                    list.len()
                )));
            }
            items.push(list);
        }
        let index = ClusterIndex::from_parts(rel, n_items, items).map_err(bad)?;
        Ok(Snapshot {
            model,
            index,
            quant: None,
        })
    }
}

/// Reads one text line of exactly `n` external ids.
fn read_ids_line(r: &mut dyn BufRead, n: usize, what: &str) -> Result<Vec<u64>, OcularError> {
    let line = read_line(r)?;
    let ids: Vec<u64> = line
        .split_whitespace()
        .map(|f| f.parse::<u64>())
        .collect::<Result<_, _>>()
        .map_err(|_| bad(format!("id-maps: bad {what} id")))?;
    if ids.len() != n {
        return Err(bad(format!(
            "id-maps: declared {n} {what} ids, found {}",
            ids.len()
        )));
    }
    Ok(ids)
}

/// After a text payload: parses the optional trailing sections in order —
/// `snapshot-meta v1`, then `id-maps v1` — then the trailing sentinel.
fn read_tail_sections(
    r: &mut dyn BufRead,
) -> Result<(Option<SnapshotMeta>, Option<IdMaps>), OcularError> {
    let mut line = read_line(r)?;
    let mut meta = None;
    if let Some(rest) = line
        .strip_prefix(META_HEADER)
        .and_then(|rest| rest.strip_prefix(' '))
    {
        let fields: Vec<u64> = rest
            .split_whitespace()
            .map(|f| f.parse::<u64>())
            .collect::<Result<_, _>>()
            .map_err(|_| bad("snapshot-meta: bad value"))?;
        let [generation, n_users, n_items, nnz] = fields[..] else {
            return Err(bad(
                "snapshot-meta header needs generation n_users n_items nnz",
            ));
        };
        meta = Some(SnapshotMeta {
            generation,
            n_users,
            n_items,
            nnz,
        });
        line = read_line(r)?;
    }
    if line == FOOTER {
        return Ok((meta, None));
    }
    // the separator is part of the required prefix (same convention as
    // the v2 envelope header), so `id-maps v10 …` is corruption, not a
    // v1 section with a mis-binned count
    let rest = line
        .strip_prefix(IDS_HEADER)
        .and_then(|rest| rest.strip_prefix(' '))
        .ok_or_else(|| {
            bad(format!(
                "expected `{META_HEADER} …`, `{IDS_HEADER} …` or `{FOOTER}`, got `{line}`"
            ))
        })?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let [n_users, n_items] = fields[..] else {
        return Err(bad("id-maps header needs n_users n_items"));
    };
    let n_users: usize = n_users.parse().map_err(|_| bad("bad id-maps n_users"))?;
    let n_items: usize = n_items.parse().map_err(|_| bad("bad id-maps n_items"))?;
    let users = read_ids_line(r, n_users, "user")?;
    let items = read_ids_line(r, n_items, "item")?;
    let ids = IdMaps::new(users, items).map_err(|e| bad(format!("id-maps: {e}")))?;
    if read_line(r)? != FOOTER {
        return Err(bad(format!("missing `{FOOTER}` sentinel")));
    }
    Ok((meta, Some(ids)))
}

impl Snapshot {
    /// Writes the OCuLaR payload (model + candidate index) as v3 binary
    /// sections.
    fn write_sections(&self, w: &mut SectionWriter) -> Result<(), OcularError> {
        self.model.write_sections(w)?;
        w.put_f64s("idxrel", &[self.index.rel()]);
        w.put_u64s("idxptr", self.index.indptr());
        w.put_u32s("idxdat", self.index.item_data());
        // quantized item factors (64-byte-aligned sections, see
        // `put_pod64`) so loaders feed them straight into the blocked
        // kernels without copying
        if let Some(q) = &self.quant {
            match q.dtype() {
                QuantDtype::F32 => w.put_f32s("if32", q.f32_data()),
                QuantDtype::I8 => {
                    let (codes, scale, zero, qsum) = q.i8_parts();
                    w.put_i8s("ii8", codes);
                    w.put_f32s("i8scl", scale);
                    w.put_f32s("i8zp", zero);
                    w.put_f32s("i8sum", qsum);
                }
            }
        }
        Ok(())
    }

    /// Reads the payload written by [`Snapshot::write_sections`], with the
    /// factor matrices and index arrays **borrowed** from the reader's
    /// byte region.
    fn read_sections(r: &SectionReader) -> Result<Snapshot, OcularError> {
        let model = FactorModel::read_sections(r)?;
        let [rel] = r.f64_meta::<1>("idxrel")?;
        let index =
            ClusterIndex::from_csr(rel, model.n_items(), r.u64s("idxptr")?, r.u32s("idxdat")?)
                .map_err(OcularError::Corrupt)?;
        if index.n_clusters() != model.n_clusters() {
            return Err(OcularError::Corrupt(format!(
                "index has {} clusters but model has {}",
                index.n_clusters(),
                model.n_clusters()
            )));
        }
        let (rows, cols) = (model.n_items(), model.item_factors.cols());
        let quant = if r.has("if32") {
            Some(
                QuantizedFactors::from_parts_f32(rows, cols, r.f32s("if32")?)
                    .map_err(OcularError::Corrupt)?,
            )
        } else if r.has("ii8") {
            Some(
                QuantizedFactors::from_parts_i8(
                    rows,
                    cols,
                    r.i8s("ii8")?,
                    r.f32s("i8scl")?,
                    r.f32s("i8zp")?,
                    r.f32s("i8sum")?,
                )
                .map_err(OcularError::Corrupt)?,
            )
        } else {
            None
        };
        Ok(Snapshot {
            model,
            index,
            quant,
        })
    }
}

/// Writes the optional id-map sections: both external-id order arrays
/// plus both raw lookup tables, so the serving tier probes the tables in
/// place instead of rebuilding hash maps.
fn write_ids_sections(w: &mut SectionWriter, ids: &IdMaps) {
    w.put_u64s("uids", ids.users());
    w.put_u64s("iids", ids.items());
    let (ut, it) = ids.raw_tables();
    w.put_u64s("uhk", ut.keys());
    w.put_u32s("uhv", ut.vals());
    w.put_u64s("ihk", it.keys());
    w.put_u32s("ihv", it.vals());
}

/// Reads the id-map sections written by [`write_ids_sections`], if
/// present. The tables are validated in full by
/// [`IdMaps::from_raw`]; on success every array is borrowed from the
/// reader's byte region.
fn read_ids_sections(r: &SectionReader) -> Result<Option<IdMaps>, OcularError> {
    if !r.has("uids") {
        return Ok(None);
    }
    let to_corrupt = |e: ocular_sparse::SparseError| OcularError::Corrupt(e.to_string());
    let user_table = RawIdTable::from_parts(r.u64s("uhk")?, r.u32s("uhv")?).map_err(to_corrupt)?;
    let item_table = RawIdTable::from_parts(r.u64s("ihk")?, r.u32s("ihv")?).map_err(to_corrupt)?;
    IdMaps::from_raw(r.u64s("uids")?, r.u64s("iids")?, user_table, item_table)
        .map(Some)
        .map_err(to_corrupt)
}

/// A snapshot of *any* model kind — what the polymorphic serving path
/// loads. OCuLaR snapshots keep their candidate-generation index; every
/// other kind is a bare [`Model`] trait object.
// One per load; boxing the OCuLaR variant would cost an indirection on
// every request for no memory win that matters at this cardinality.
#[allow(clippy::large_enum_variant)]
pub enum AnySnapshot {
    /// An OCuLaR model with its co-cluster index.
    Ocular(Snapshot),
    /// Any other model kind, served through the trait hierarchy.
    Other(Box<dyn Model>),
}

impl AnySnapshot {
    /// The snapshot's kind tag.
    pub fn kind(&self) -> &'static str {
        match self {
            AnySnapshot::Ocular(_) => OCULAR_KIND,
            AnySnapshot::Other(m) => m.kind(),
        }
    }

    /// Serialises the snapshot as an `ocular-snapshot v3` binary container,
    /// plus the optional id maps (the training dataset's external↔internal
    /// tables) and live-refresh metadata (retrain generation + source-data
    /// watermark). Write the bytes to a file with [`std::fs::write`].
    ///
    /// An `Other` payload whose kind tag is `ocular` is rejected: the
    /// `ocular` kind carries the co-cluster index, which only
    /// [`AnySnapshot::Ocular`] has — encoding a bare `FactorModel` under
    /// that tag would produce a container the loader (correctly) refuses.
    pub fn to_v3_bytes_full(
        &self,
        ids: Option<&IdMaps>,
        meta: Option<&SnapshotMeta>,
    ) -> Result<Vec<u8>, OcularError> {
        let mut w = SectionWriter::new(self.kind());
        match self {
            AnySnapshot::Ocular(s) => s.write_sections(&mut w)?,
            AnySnapshot::Other(m) => {
                if m.kind() == OCULAR_KIND {
                    return Err(OcularError::InvalidConfig(format!(
                        "kind `{OCULAR_KIND}` must be snapshotted as AnySnapshot::Ocular \
                         (its format carries the co-cluster index)"
                    )));
                }
                m.write_sections(&mut w)?;
            }
        }
        if let Some(meta) = meta {
            meta.write_section(&mut w);
        }
        if let Some(ids) = ids {
            write_ids_sections(&mut w, ids);
        }
        Ok(w.finish())
    }

    /// Loads a v3 binary snapshot from a byte region (owned or mapped).
    /// The factor matrices, cluster index and id maps **borrow** their
    /// large buffers from the region — no per-payload allocation.
    pub fn load_v3_full(region: ModelBytes) -> Result<LoadedSnapshot, OcularError> {
        let r = SectionReader::open(region)?;
        let snapshot = match r.kind() {
            OCULAR_KIND => AnySnapshot::Ocular(Snapshot::read_sections(&r)?),
            Wals::KIND => AnySnapshot::Other(Box::new(Wals::read_sections(&r)?)),
            Bpr::KIND => AnySnapshot::Other(Box::new(Bpr::read_sections(&r)?)),
            UserKnn::KIND => AnySnapshot::Other(Box::new(UserKnn::read_sections(&r)?)),
            ItemKnn::KIND => AnySnapshot::Other(Box::new(ItemKnn::read_sections(&r)?)),
            Popularity::KIND => AnySnapshot::Other(Box::new(Popularity::read_sections(&r)?)),
            other => return Err(OcularError::UnknownModelKind(other.to_string())),
        };
        let meta = SnapshotMeta::read_section(&r)?;
        let ids = read_ids_sections(&r)?;
        Ok(LoadedSnapshot {
            snapshot,
            ids,
            meta,
        })
    }

    /// Imports a v1/v2 text snapshot: the v1 envelope (implicitly
    /// `ocular`), or a v2 envelope whose kind tag is dispatched against the
    /// registry of known model kinds, plus its optional metadata and id
    /// maps. Unknown kinds are [`OcularError::UnknownModelKind`];
    /// corruption and truncation are [`OcularError::Corrupt`].
    pub fn import_text(r: &mut dyn BufRead) -> Result<LoadedSnapshot, OcularError> {
        let header = read_line(r)?;
        let kind = if header == V1_HEADER {
            OCULAR_KIND
        } else {
            // the separator is part of the required prefix, so `v2wals`
            // (no space) and version strings like `v2.1` are rejected
            // instead of mis-binning into a kind tag
            header
                .strip_prefix(V2_PREFIX)
                .and_then(|rest| rest.strip_prefix(' '))
                .filter(|kind| !kind.is_empty() && !kind.contains(char::is_whitespace))
                .ok_or_else(|| {
                    bad(format!(
                        "bad snapshot header, expected `{V1_HEADER}` or `{V2_PREFIX} <kind>`"
                    ))
                })?
        };
        let snapshot = match kind {
            OCULAR_KIND => AnySnapshot::Ocular(Snapshot::import_payload(r)?),
            Wals::KIND => AnySnapshot::Other(Box::new(Wals::load_model(r)?)),
            Bpr::KIND => AnySnapshot::Other(Box::new(Bpr::load_model(r)?)),
            UserKnn::KIND => AnySnapshot::Other(Box::new(UserKnn::load_model(r)?)),
            ItemKnn::KIND => AnySnapshot::Other(Box::new(ItemKnn::load_model(r)?)),
            Popularity::KIND => AnySnapshot::Other(Box::new(Popularity::load_model(r)?)),
            other => return Err(OcularError::UnknownModelKind(other.to_string())),
        };
        let (meta, ids) = read_tail_sections(r)?;
        Ok(LoadedSnapshot {
            snapshot,
            ids,
            meta,
        })
    }

    /// Loads a snapshot file, sniffing the magic bytes: v3 containers are
    /// memory-mapped and loaded zero-copy ([`AnySnapshot::load_v3_full`]),
    /// anything else is imported as a v1/v2 text snapshot
    /// ([`AnySnapshot::import_text`]).
    pub fn load_path_full(path: &Path) -> Result<LoadedSnapshot, OcularError> {
        let mut prefix = [0u8; 8];
        let mut file = std::fs::File::open(path)?;
        let n = file.read(&mut prefix)?;
        if is_v3(&prefix[..n]) {
            drop(file);
            return Self::load_v3_full(ModelBytes::map_file(path)?);
        }
        file.rewind()?;
        Self::import_text(&mut std::io::BufReader::new(file))
    }
}

/// One shard of a user-split snapshot: a standalone [`Snapshot`] over the
/// shard's user-factor rows (item factors, cluster index and quantized
/// copy replicated in full), plus the global training rows those
/// shard-local rows came from, in ascending order.
pub struct SnapshotShard {
    /// The shard's snapshot — loadable and servable on its own.
    pub snapshot: Snapshot,
    /// Ascending global training row of each shard-local user row.
    pub global_rows: Vec<u64>,
}

impl Snapshot {
    /// Splits the model's user rows into `n_shards` groups by the stable
    /// hash of each row's external user id ([`ocular_bytes::shard_of_key`]
    /// over `external_ids`, or over the row index itself under the
    /// identity mapping), keeping ascending row order inside each group.
    ///
    /// The item-side state — item factors, co-cluster index, any
    /// quantized copy — is **replicated** into every shard rather than
    /// split: it is what cold fold-in and candidate generation read, and
    /// replicating it byte-identically is what makes every shard decide
    /// and score exactly like the unsharded engine. This is the same
    /// partition rule as [`ocular_sparse::ShardedDataset::split`], so
    /// shard-local model rows line up with the shard dataset's rows by
    /// construction.
    pub fn split_users(
        &self,
        external_ids: Option<&[u64]>,
        n_shards: usize,
    ) -> Result<Vec<SnapshotShard>, OcularError> {
        if n_shards == 0 {
            return Err(OcularError::InvalidConfig(
                "shard count must be positive".into(),
            ));
        }
        let n_users = self.model.n_users();
        if let Some(ids) = external_ids {
            if ids.len() != n_users {
                return Err(OcularError::InvalidConfig(format!(
                    "{} external user ids cannot address {n_users} model rows",
                    ids.len()
                )));
            }
        }
        let mut groups: Vec<Vec<u64>> = vec![Vec::new(); n_shards];
        for g in 0..n_users {
            let ext = external_ids.map_or(g as u64, |ids| ids[g]);
            groups[shard_of_key(ext, n_shards)].push(g as u64);
        }
        let k = self.model.user_factors.cols();
        Ok(groups
            .into_iter()
            .map(|rows| {
                let mut uf = Matrix::zeros(rows.len(), k);
                for (l, &g) in rows.iter().enumerate() {
                    uf.row_mut(l)
                        .copy_from_slice(self.model.user_factors.row(g as usize));
                }
                let model =
                    FactorModel::new(uf, self.model.item_factors.clone(), self.model.has_bias());
                SnapshotShard {
                    snapshot: Snapshot {
                        model,
                        index: self.index.clone(),
                        quant: self.quant.clone(),
                    },
                    global_rows: rows,
                }
            })
            .collect())
    }
}

/// File path of shard `s` of an `n`-way sharded snapshot:
/// `{base}.shard-{s}-of-{n}`. The suffix carries both coordinates so a
/// family of shard files is self-describing on disk and a worker pointed
/// at the wrong `--shards` count fails loudly instead of mapping a
/// mismatched file.
pub fn shard_path(base: &Path, shard: usize, n_shards: usize) -> PathBuf {
    let mut os = base.as_os_str().to_os_string();
    os.push(format!(".shard-{shard}-of-{n_shards}"));
    PathBuf::from(os)
}

/// A loaded sharded-snapshot family: one [`LoadedSnapshot`] per shard
/// plus each shard's global-row table, as read back by
/// [`AnySnapshot::load_path_sharded`].
pub struct ShardedLoad {
    /// Per-shard snapshots, in shard order. Every one is `Ocular`.
    pub shards: Vec<LoadedSnapshot>,
    /// Per shard: ascending global training row of each shard-local row.
    pub global_rows: Vec<Vec<u64>>,
}

impl AnySnapshot {
    /// Writes the snapshot as `n_shards` standalone v3 shard files next
    /// to `path` (see [`shard_path`]), splitting the user-factor rows by
    /// [`Snapshot::split_users`] and replicating the item-side state.
    ///
    /// Each shard file is a complete, independently loadable v3 snapshot
    /// — shard user rows, full item factors, full index, any quantized
    /// copy, the shard-scoped id maps (shard users × the full item
    /// table), and the same metadata section — plus two extra sections:
    /// `shgid` (the global training row of each shard-local row) and
    /// `shnfo` (`[shard, n_shards]`). A serve worker therefore mmaps
    /// only its own shard. Only OCuLaR snapshots have user-factor rows
    /// to split; other kinds are an [`OcularError::InvalidConfig`].
    pub fn save_path_sharded(
        &self,
        path: &Path,
        ids: Option<&IdMaps>,
        meta: Option<&SnapshotMeta>,
        n_shards: usize,
    ) -> Result<Vec<PathBuf>, OcularError> {
        let AnySnapshot::Ocular(snap) = self else {
            return Err(OcularError::InvalidConfig(format!(
                "sharded snapshots require an OCuLaR model; kind `{}` has no \
                 user-factor rows to split",
                self.kind()
            )));
        };
        if let Some(ids) = ids {
            if ids.n_users() != snap.model.n_users() || ids.n_items() != snap.model.n_items() {
                return Err(OcularError::InvalidConfig(format!(
                    "id maps cover {}×{} but the model is {}×{}",
                    ids.n_users(),
                    ids.n_items(),
                    snap.model.n_users(),
                    snap.model.n_items()
                )));
            }
        }
        let shards = snap.split_users(ids.map(IdMaps::users), n_shards)?;
        let mut paths = Vec::with_capacity(n_shards);
        for (s, shard) in shards.iter().enumerate() {
            let shard_ids = match ids {
                None => None,
                Some(ids) => {
                    let users: Vec<u64> = shard
                        .global_rows
                        .iter()
                        .map(|&g| ids.users()[g as usize])
                        .collect();
                    Some(
                        IdMaps::new(users, ids.items().to_vec())
                            .map_err(|e| OcularError::Corrupt(e.to_string()))?,
                    )
                }
            };
            let mut w = SectionWriter::new(OCULAR_KIND);
            shard.snapshot.write_sections(&mut w)?;
            if let Some(meta) = meta {
                meta.write_section(&mut w);
            }
            if let Some(sids) = &shard_ids {
                write_ids_sections(&mut w, sids);
            }
            w.put_u64s("shgid", &shard.global_rows);
            w.put_u64s("shnfo", &[s as u64, n_shards as u64]);
            let p = shard_path(path, s, n_shards);
            std::fs::write(&p, w.finish()).map_err(OcularError::from)?;
            paths.push(p);
        }
        Ok(paths)
    }

    /// Loads an `n_shards`-way shard family written by
    /// [`AnySnapshot::save_path_sharded`], memory-mapping each shard file
    /// zero-copy and validating the family: every file must be an OCuLaR
    /// v3 shard whose `shnfo` coordinates match its name, and the
    /// `shgid` tables must be a disjoint ascending cover of
    /// `0..total_users`.
    pub fn load_path_sharded(path: &Path, n_shards: usize) -> Result<ShardedLoad, OcularError> {
        if n_shards == 0 {
            return Err(OcularError::InvalidConfig(
                "shard count must be positive".into(),
            ));
        }
        let mut shards = Vec::with_capacity(n_shards);
        let mut global_rows = Vec::with_capacity(n_shards);
        for s in 0..n_shards {
            let p = shard_path(path, s, n_shards);
            let region = ModelBytes::map_file(&p).map_err(OcularError::from)?;
            let r = SectionReader::open(region)?;
            if r.kind() != OCULAR_KIND {
                return Err(OcularError::Corrupt(format!(
                    "shard file {} holds kind `{}`, not an OCuLaR shard",
                    p.display(),
                    r.kind()
                )));
            }
            let snapshot = Snapshot::read_sections(&r)?;
            let [shard_id, n] = r.u64_meta::<2>("shnfo")?;
            if shard_id != s as u64 || n != n_shards as u64 {
                return Err(OcularError::Corrupt(format!(
                    "shard file {} says shard {shard_id} of {n}, expected {s} of {n_shards}",
                    p.display()
                )));
            }
            let gid: Vec<u64> = r.u64s("shgid")?.to_vec();
            if gid.len() != snapshot.model.n_users() {
                return Err(OcularError::Corrupt(format!(
                    "shard file {} maps {} global rows onto {} user rows",
                    p.display(),
                    gid.len(),
                    snapshot.model.n_users()
                )));
            }
            if gid.windows(2).any(|w| w[0] >= w[1]) {
                return Err(OcularError::Corrupt(format!(
                    "shard file {} global rows are not strictly ascending",
                    p.display()
                )));
            }
            let meta = SnapshotMeta::read_section(&r)?;
            let ids = read_ids_sections(&r)?;
            shards.push(LoadedSnapshot {
                snapshot: AnySnapshot::Ocular(snapshot),
                ids,
                meta,
            });
            global_rows.push(gid);
        }
        // the shgid tables must partition 0..total exactly
        let total: usize = global_rows.iter().map(Vec::len).sum();
        let mut seen = vec![false; total];
        for gid in &global_rows {
            for &g in gid {
                let g = usize::try_from(g)
                    .ok()
                    .filter(|&g| g < total)
                    .ok_or_else(|| {
                        OcularError::Corrupt(format!("shard global row {g} outside 0..{total}"))
                    })?;
                if std::mem::replace(&mut seen[g], true) {
                    return Err(OcularError::Corrupt(format!(
                        "global row {g} claimed by two shards"
                    )));
                }
            }
        }
        Ok(ShardedLoad {
            shards,
            global_rows,
        })
    }
}

/// Everything a snapshot file can carry: the model payload, the optional
/// external-id tables, and the optional live-refresh metadata.
pub struct LoadedSnapshot {
    /// The model payload (with its index for `ocular`).
    pub snapshot: AnySnapshot,
    /// The training dataset's id tables, if embedded.
    pub ids: Option<IdMaps>,
    /// Retrain generation + source-data watermark, if embedded.
    pub meta: Option<SnapshotMeta>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocular_api::ScoreItems;
    use ocular_baselines::WalsConfig;
    use ocular_sparse::CsrMatrix;

    fn snapshot() -> Snapshot {
        let model = FactorModel::new(
            Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.2]]),
            Matrix::from_rows(&[&[2.0, 0.0], &[1.0, 1.5], &[0.0, 3.0]]),
            false,
        );
        Snapshot::build(model, &IndexConfig { rel: 0.5, floor: 0 })
    }

    /// [`snapshot`] as the pre-v3 writer rendered it: a v2 text envelope.
    const FIXTURE_V2: &str = "ocular-snapshot v2 ocular\n\
        ocular-model v1 2 3 2 0\n\
        1e0 0e0\n0e0 1.2e0\n\
        2e0 0e0\n1e0 1.5e0\n0e0 3e0\n\
        cocluster-index v1 2 3 5e-1\n\
        2 0 1\n2 1 2\n\
        ocular-snapshot end\n";

    /// [`FIXTURE_V2`] with the given optional sections spliced in before
    /// the sentinel.
    fn fixture_with(tail: &str) -> String {
        FIXTURE_V2.replace(FOOTER, &format!("{tail}{FOOTER}"))
    }

    /// The text rendering of [`sample_ids`].
    const IDS_TEXT: &str = "id-maps v1 2 3\n101 7\n900 4 55\n";
    /// The text rendering of [`sample_meta`].
    const META_TEXT: &str = "snapshot-meta v1 2 2 3 4\n";

    /// A committed v2 text golden of the given kind.
    fn golden(kind: &str) -> Vec<u8> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/data/golden")
            .join(format!("v2-{kind}.snap"));
        std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
    }

    fn import(text: &[u8]) -> Result<LoadedSnapshot, OcularError> {
        AnySnapshot::import_text(&mut &text[..])
    }

    fn v3_cycle(
        s: &AnySnapshot,
        ids: Option<&IdMaps>,
        meta: Option<&SnapshotMeta>,
    ) -> LoadedSnapshot {
        let bytes = s.to_v3_bytes_full(ids, meta).unwrap();
        AnySnapshot::load_v3_full(ModelBytes::from_vec(bytes)).unwrap()
    }

    fn ocular(s: AnySnapshot) -> Snapshot {
        match s {
            AnySnapshot::Ocular(s) => s,
            AnySnapshot::Other(m) => panic!("expected ocular, got `{}`", m.kind()),
        }
    }

    #[test]
    fn roundtrip() {
        let s = snapshot();
        let loaded = v3_cycle(&AnySnapshot::Ocular(s.clone()), None, None);
        assert_eq!(ocular(loaded.snapshot), s);
    }

    #[test]
    fn v1_envelope_still_loads() {
        let v1 = FIXTURE_V2.replacen("ocular-snapshot v2 ocular", V1_HEADER, 1);
        for text in [FIXTURE_V2, &v1] {
            let loaded = import(text.as_bytes()).unwrap();
            assert!(loaded.ids.is_none() && loaded.meta.is_none());
            assert_eq!(ocular(loaded.snapshot), snapshot());
        }
    }

    #[test]
    fn truncation_at_every_line_rejected() {
        let text = fixture_with(&format!("{META_TEXT}{IDS_TEXT}"));
        let lines: Vec<&str> = text.lines().collect();
        for keep in 0..lines.len() {
            let partial = lines[..keep].join("\n");
            assert!(
                import(partial.as_bytes()).is_err(),
                "truncation after {keep} lines must be rejected"
            );
        }
    }

    #[test]
    fn corrupt_sections_rejected() {
        // wrong envelope
        assert!(import(b"nope\n").is_err());
        // tamper with the index header's cluster count
        let tampered = FIXTURE_V2.replace("cocluster-index v1 2", "cocluster-index v1 3");
        assert!(import(tampered.as_bytes()).is_err());
        // unknown index section version
        let tampered = FIXTURE_V2.replace("cocluster-index v1", "cocluster-index v9");
        assert!(import(tampered.as_bytes()).is_err());
    }

    #[test]
    fn list_length_mismatch_rejected() {
        // cluster 0's list line is "2 0 1" (rel 0.5 keeps items 0, 1);
        // lie about its length
        assert!(FIXTURE_V2.contains("\n2 0 1\n"));
        let tampered = FIXTURE_V2.replace("\n2 0 1\n", "\n3 0 1\n");
        assert!(import(tampered.as_bytes()).is_err());
        // out-of-order ids
        let tampered = FIXTURE_V2.replace("\n2 0 1\n", "\n2 1 0\n");
        assert!(import(tampered.as_bytes()).is_err());
    }

    #[test]
    fn baseline_kind_roundtrips_through_any_snapshot() {
        let r = ocular_sparse::Dataset::from_matrix(
            CsrMatrix::from_pairs(4, 4, &[(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (3, 3)]).unwrap(),
        );
        let wals = Wals::fit(
            &r,
            &WalsConfig {
                k: 2,
                iters: 5,
                ..Default::default()
            },
        );
        let mut want = Vec::new();
        wals.score_user(1, &mut want);
        let snap = AnySnapshot::Other(Box::new(wals));
        assert_eq!(snap.kind(), "wals");
        let loaded = v3_cycle(&snap, None, None).snapshot;
        assert_eq!(loaded.kind(), "wals");
        match loaded {
            AnySnapshot::Other(m) => {
                let mut got = Vec::new();
                m.score_user(1, &mut got);
                assert_eq!(got, want, "scores must round-trip bitwise");
            }
            AnySnapshot::Ocular(_) => panic!("wals must not load as ocular"),
        }
        // a wALS text snapshot imports as its kind, and truncation of a
        // baseline payload is rejected
        let text = golden("wals");
        assert_eq!(import(&text).unwrap().snapshot.kind(), "wals");
        let text = String::from_utf8(text).unwrap();
        let cut: String = text.lines().take(3).collect::<Vec<_>>().join("\n");
        assert!(import(cut.as_bytes()).is_err());
    }

    #[test]
    fn unknown_kind_rejected_with_typed_error() {
        let doc = "ocular-snapshot v2 neural-net\nwhatever\nocular-snapshot end\n";
        assert!(matches!(
            import(doc.as_bytes()),
            Err(OcularError::UnknownModelKind(k)) if k == "neural-net"
        ));
    }

    #[test]
    fn malformed_v2_headers_are_corrupt_not_misbinned() {
        // no separator: must not parse as kind `wals`
        assert!(matches!(
            import(b"ocular-snapshot v2wals\n"),
            Err(OcularError::Corrupt(_))
        ));
        // future version strings must not strip into a bogus kind
        assert!(matches!(
            import(b"ocular-snapshot v2.1 wals\n"),
            Err(OcularError::Corrupt(_))
        ));
        // empty kind tag
        assert!(matches!(
            import(b"ocular-snapshot v2 \n"),
            Err(OcularError::Corrupt(_))
        ));
    }

    fn sample_ids() -> IdMaps {
        IdMaps::new(vec![101, 7], vec![900, 4, 55]).unwrap()
    }

    #[test]
    fn id_maps_section_round_trips_for_ocular() {
        let s = AnySnapshot::Ocular(snapshot());
        let ids = sample_ids();
        let loaded = v3_cycle(&s, Some(&ids), None);
        assert_eq!(loaded.snapshot.kind(), "ocular");
        assert_eq!(loaded.ids, Some(ids.clone()));
        // the text section imports to the same tables and model
        let text = fixture_with(IDS_TEXT);
        let imported = import(text.as_bytes()).unwrap();
        assert_eq!(imported.ids, Some(ids));
        assert_eq!(ocular(imported.snapshot), snapshot());
        // truncation anywhere inside the ids section is rejected
        let lines: Vec<&str> = text.lines().collect();
        for keep in 0..lines.len() {
            let partial = lines[..keep].join("\n");
            assert!(
                import(partial.as_bytes()).is_err(),
                "truncation after {keep} lines must be rejected"
            );
        }
    }

    #[test]
    fn id_maps_section_round_trips_for_baseline_kinds() {
        let r = CsrMatrix::from_pairs(2, 3, &[(0, 0), (0, 2), (1, 1)]).unwrap();
        let pop = AnySnapshot::Other(Box::new(ocular_baselines::Popularity::fit(&r.into())));
        let ids = sample_ids();
        let loaded = v3_cycle(&pop, Some(&ids), None);
        assert_eq!(loaded.snapshot.kind(), "popularity");
        assert_eq!(loaded.ids, Some(ids));
        // a baseline text snapshot's id maps import too
        let imported = import(&golden("popularity")).unwrap();
        assert_eq!(imported.snapshot.kind(), "popularity");
        assert_eq!(imported.ids.map(|ids| ids.users()[1]), Some(1_007));
    }

    #[test]
    fn snapshots_without_ids_load_with_none() {
        let s = AnySnapshot::Ocular(snapshot());
        assert_eq!(v3_cycle(&s, None, None).ids, None);
        assert_eq!(import(FIXTURE_V2.as_bytes()).unwrap().ids, None);
    }

    #[test]
    fn corrupt_id_maps_rejected() {
        let text = fixture_with(IDS_TEXT);
        // wrong count
        let tampered = text.replace("id-maps v1 2 3", "id-maps v1 3 3");
        assert!(import(tampered.as_bytes()).is_err());
        // duplicate external id
        let tampered = text.replace("101 7", "101 101");
        assert!(import(tampered.as_bytes()).is_err());
        // non-numeric id
        let tampered = text.replace("900 4 55", "900 x 55");
        assert!(import(tampered.as_bytes()).is_err());
        // a future/corrupt section version must not mis-bin into v1
        // (`id-maps v10 …` would otherwise strip to a valid-looking count)
        let tampered = text.replace("id-maps v1 ", "id-maps v10 ");
        assert!(matches!(
            import(tampered.as_bytes()),
            Err(OcularError::Corrupt(_))
        ));
    }

    fn sample_meta() -> SnapshotMeta {
        SnapshotMeta {
            generation: 2,
            n_users: 2,
            n_items: 3,
            nnz: 4,
        }
    }

    #[test]
    fn snapshot_meta_round_trips_in_text_format() {
        let (meta, ids) = (sample_meta(), sample_ids());
        let loaded = import(fixture_with(&format!("{META_TEXT}{IDS_TEXT}")).as_bytes()).unwrap();
        assert_eq!(loaded.meta, Some(meta));
        assert_eq!(loaded.ids, Some(ids));

        // meta without ids, and a corrupt meta line
        let text = fixture_with(META_TEXT);
        let loaded = import(text.as_bytes()).unwrap();
        assert_eq!(loaded.meta, Some(meta));
        assert_eq!(loaded.ids, None);
        let tampered = text.replace("snapshot-meta v1 2 2 3 4", "snapshot-meta v1 2 2 3");
        assert!(import(tampered.as_bytes()).is_err());
    }

    #[test]
    fn snapshot_meta_round_trips_in_v3_format() {
        let s = AnySnapshot::Ocular(snapshot());
        let (meta, ids) = (sample_meta(), sample_ids());
        let loaded = v3_cycle(&s, Some(&ids), Some(&meta));
        assert_eq!(loaded.meta, Some(meta));
        assert_eq!(loaded.ids, Some(ids));
        // snapshots without the section load with None
        assert_eq!(v3_cycle(&s, None, None).meta, None);
    }

    #[test]
    fn snapshot_meta_survives_save_path_in_both_formats() {
        let dir =
            std::env::temp_dir().join(format!("ocular_serve_meta_path_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let meta = sample_meta();
        let v3 = AnySnapshot::Ocular(snapshot())
            .to_v3_bytes_full(None, Some(&meta))
            .unwrap();
        for (name, bytes) in [
            ("snap.txt", fixture_with(META_TEXT).into_bytes()),
            ("snap.bin", v3),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, bytes).unwrap();
            let loaded = AnySnapshot::load_path_full(&path).unwrap();
            assert_eq!(loaded.meta, Some(meta), "{name}");
            assert_eq!(ocular(loaded.snapshot), snapshot(), "{name}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quantized_sections_round_trip_in_v3_and_are_dropped_by_text() {
        for dtype in [QuantDtype::F32, QuantDtype::I8] {
            let s = snapshot().with_quantization(dtype);
            assert_eq!(s.quant.as_ref().unwrap().dtype(), dtype);
            let bytes = AnySnapshot::Ocular(s.clone())
                .to_v3_bytes_full(None, None)
                .unwrap();
            let loaded = AnySnapshot::load_v3_full(ModelBytes::from_vec(bytes.clone())).unwrap();
            let loaded = ocular(loaded.snapshot);
            assert_eq!(loaded, s, "{dtype}: v3 round-trip must preserve quant");
            // v3 re-serialisation of the loaded snapshot is a fixed point
            let again = AnySnapshot::Ocular(loaded)
                .to_v3_bytes_full(None, None)
                .unwrap();
            assert_eq!(again, bytes, "{dtype}: v3 must be a fixed point");
            // text snapshots predate quantization: an import carries the
            // f64 master only
            let text_loaded = ocular(import(FIXTURE_V2.as_bytes()).unwrap().snapshot);
            assert_eq!(text_loaded.quant, None);
            assert_eq!(text_loaded.model, s.model);
        }
    }

    #[test]
    fn unquantized_v3_snapshots_load_with_no_quant() {
        let s = AnySnapshot::Ocular(snapshot());
        assert_eq!(ocular(v3_cycle(&s, None, None).snapshot).quant, None);
    }

    #[test]
    fn bare_factor_model_rejected_in_other_arm_at_save() {
        let model = FactorModel::new(
            Matrix::from_rows(&[&[1.0]]),
            Matrix::from_rows(&[&[1.0]]),
            false,
        );
        let snap = AnySnapshot::Other(Box::new(model));
        let err = snap.to_v3_bytes_full(None, None).unwrap_err();
        assert!(
            err.to_string().contains("AnySnapshot::Ocular"),
            "encoding a bare ocular payload must fail loudly: {err}"
        );
    }
}
