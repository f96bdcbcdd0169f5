//! The model file: what a saved [`TrainedWorkload`] holds, written and read
//! here and nowhere else ([`crate::registry::save_model`] and
//! [`crate::registry::load_model`] put it on disk).
//!
//! A file is one JSON object:
//!
//! * `format` ([`FORMAT`]) and `kind` ([`KIND`]), read before anything else,
//!   so a file of another format or kind is refused by name;
//! * `checksum`, FNV-1a over the body's text;
//! * `body`: the version the model was saved at, the workload's `name`,
//!   every [`PythiaConfig`] field, the vocabulary's tokens in id order, the
//!   binner's bounds sorted by `(object, column)`, `object_union`, and per
//!   group its spans, its decoder heads' label counts, its threshold and its
//!   parameter tensors.
//!
//! Every number is an unsigned integer, the one kind
//! [`pythia_obs::diff::parse_json`] reads: an `f32` or `f64` is its bit
//! pattern and an `i64` its two's complement, so a round trip is exact.
//! Nothing in the file depends on `HashMap` order, so equal models write
//! equal files.
//!
//! The reader rebuilds each group with [`PlanClassifier::new`], the
//! constructor training uses, from the stored config, vocabulary size and
//! head label counts, then swaps in the stored tensors after checking their
//! count and shapes; layer structs, parameter names and the positional
//! table are not in the file. Before it builds anything it checks that the
//! tensors hold as many scalars as the config and heads need
//! ([`PlanClassifier::scalar_count`]), so a width no file could hold is
//! refused, not allocated. Then it renders the body it built and compares
//! the checksum: a file with any byte changed is refused rather than read as
//! a slightly different model. Last, the model is checked against the
//! serving catalog once, by [`TrainedWorkload::check_compat`]: every modeled
//! object exists with the page count its labels were laid out for and the
//! name its vocabulary interned.

use std::collections::{BTreeSet, HashMap};
use std::io;
use std::sync::Arc;

use pythia_db::catalog::{Database, ObjectId};
use pythia_nn::Tensor;
use pythia_obs::diff::{parse_json, Json};

use crate::classifier::PlanClassifier;
use crate::config::{Grouping, PythiaConfig};
use crate::model::{ModelGroup, Pages, Span};
use crate::predictor::TrainedWorkload;
use crate::serialize::{ColumnStats, ValueBinner};
use crate::vocab::Vocab;

/// The model file format this module writes and the only one it reads.
/// Format 2 was the derived encoding of the model types themselves; format
/// 3 also held a catalog header derived from the body.
pub const FORMAT: u64 = 4;

/// The `kind` every model file names.
pub const KIND: &str = "pythia.model";

/// `tw` saved at `version`, as the text of a model file.
pub fn write(version: u64, tw: &TrainedWorkload) -> String {
    let body = body(version, tw).to_string();
    let checksum = fnv1a(&body);
    format!("{{\"format\":{FORMAT},\"kind\":\"{KIND}\",\"checksum\":{checksum},\"body\":{body}}}")
}

/// Read a model file's text, refusing anything but a [`FORMAT`] file of
/// [`KIND`] whose body matches its checksum and the serving catalog `db`.
/// Returns `(version, workload)`.
pub fn read(text: &str, db: &Database) -> io::Result<(u64, TrainedWorkload)> {
    read_checked(text, db).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

fn read_checked(text: &str, db: &Database) -> Result<(u64, TrainedWorkload), String> {
    // The format is read off the text before it is parsed: a file of
    // another format may hold what this parser refuses (format 2 held
    // floats), and it is the format that explains why.
    let format = text
        .strip_prefix("{\"format\":")
        .and_then(|rest| {
            rest.split(|c: char| !c.is_ascii_digit())
                .next()?
                .parse::<u64>()
                .ok()
        })
        .ok_or("not a model file: no {\"format\": ...} envelope")?;
    if format != FORMAT {
        return Err(format!(
            "model file format {format} is not the supported format {FORMAT}"
        ));
    }
    let file = parse_json(text)?;
    let kind = text_of(get(&file, "kind")?)?;
    if kind != KIND {
        return Err(format!(
            "model file holds a '{kind}' payload, expected '{KIND}'"
        ));
    }
    let (version, tw) = read_body(get(&file, "body")?)?;
    if fnv1a(&body(version, &tw).to_string()) != uint(get(&file, "checksum")?)? {
        return Err("model file body does not match its checksum".into());
    }
    tw.check_compat(db)?;
    Ok((version, tw))
}

/// FNV-1a, 64-bit.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

// --- writer ------------------------------------------------------------

fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn arr<T>(items: impl IntoIterator<Item = T>, each: impl FnMut(T) -> Json) -> Json {
    Json::Arr(items.into_iter().map(each).collect())
}

fn num(n: usize) -> Json {
    Json::Num(n as u64)
}

fn u32_num(n: u32) -> Json {
    Json::Num(n.into())
}

fn bits(x: f32) -> Json {
    u32_num(x.to_bits())
}

fn body(version: u64, tw: &TrainedWorkload) -> Json {
    let c = &tw.cfg;
    let config = obj([
        ("embed_dim", num(c.embed_dim)),
        ("heads", num(c.heads)),
        ("layers", num(c.layers)),
        ("ff_dim", num(c.ff_dim)),
        ("decoder_hidden", num(c.decoder_hidden)),
        ("epochs", num(c.epochs)),
        ("batch_size", num(c.batch_size)),
        ("lr", bits(c.lr)),
        ("pos_weight", bits(c.pos_weight)),
        ("threshold", c.threshold.map_or(Json::Null, bits)),
        ("max_seq_len", num(c.max_seq_len)),
        ("partition_pages", num(c.partition_pages)),
        (
            "min_object_support",
            Json::Num(c.min_object_support.to_bits()),
        ),
        ("top_k", c.top_k.map_or(Json::Null, num)),
        ("grouping", Json::Str(format!("{:?}", c.grouping))),
        ("seed", Json::Num(c.seed)),
    ]);
    let mut bounds: Vec<_> = tw.binner.stats.iter().collect();
    bounds.sort_unstable_by_key(|&(&key, _)| key);
    let bound = |(&(o, col), s): (&(ObjectId, usize), &ColumnStats)| {
        let ints = [u64::from(o.0), col as u64, s.min as u64, s.max as u64];
        arr(ints, Json::Num)
    };
    obj([
        ("version", Json::Num(version)),
        ("name", Json::Str(tw.name.clone())),
        ("config", config),
        (
            "vocab",
            arr(0..tw.vocab.len(), |id| {
                Json::Str(tw.vocab.token(id).to_owned())
            }),
        ),
        ("binner", arr(bounds, bound)),
        ("object_union", arr(&tw.object_union, |o| u32_num(o.0))),
        ("groups", arr(tw.groups.iter(), group)),
    ])
}

fn group(g: &ModelGroup) -> Json {
    let span = |s: &Span| match &s.pages {
        Pages::Range { first, len } => obj([
            ("object", u32_num(s.object.0)),
            ("n_pages", u32_num(s.n_pages)),
            ("first", u32_num(*first)),
            ("len", u32_num(*len)),
        ]),
        Pages::List(pages) => obj([
            ("object", u32_num(s.object.0)),
            ("n_pages", u32_num(s.n_pages)),
            ("pages", arr(pages.iter().copied(), u32_num)),
        ]),
    };
    let tensor = |t: &Tensor| {
        obj([
            ("rows", num(t.rows())),
            ("cols", num(t.cols())),
            ("data", arr(t.as_slice().iter().copied(), bits)),
        ])
    };
    obj([
        ("spans", arr(&g.spans, span)),
        ("head_labels", arr(g.classifier.head_labels(), num)),
        ("threshold", bits(g.threshold())),
        ("tensors", arr(g.classifier.tensors(), tensor)),
    ])
}

// --- reader ------------------------------------------------------------

/// The value under `key` of the object `v`.
fn get<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    let Json::Obj(pairs) = v else {
        return Err(format!("expected an object holding '{key}'"));
    };
    let found = pairs.iter().find(|(k, _)| k == key);
    found
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing '{key}'"))
}

fn uint(v: &Json) -> Result<u64, String> {
    match v {
        Json::Num(n) => Ok(*n),
        _ => Err("expected an unsigned integer".into()),
    }
}

fn int<T: TryFrom<u64>>(v: &Json) -> Result<T, String> {
    T::try_from(uint(v)?).map_err(|_| "integer out of range".into())
}

fn f32_bits(v: &Json) -> Result<f32, String> {
    int(v).map(f32::from_bits)
}

fn items(v: &Json) -> Result<&[Json], String> {
    match v {
        Json::Arr(items) => Ok(items),
        _ => Err("expected an array".into()),
    }
}

/// Every item of the array `v`, read by `each`.
fn list_of<T>(v: &Json, each: impl Fn(&Json) -> Result<T, String>) -> Result<Vec<T>, String> {
    items(v)?.iter().map(each).collect()
}

fn text_of(v: &Json) -> Result<&str, String> {
    match v {
        Json::Str(s) => Ok(s),
        _ => Err("expected a string".into()),
    }
}

fn option_of<T>(v: &Json, each: impl Fn(&Json) -> Result<T, String>) -> Result<Option<T>, String> {
    match v {
        Json::Null => Ok(None),
        v => each(v).map(Some),
    }
}

fn read_body(b: &Json) -> Result<(u64, TrainedWorkload), String> {
    let cfg = read_config(get(b, "config")?)?;
    cfg.validate()?;
    let tokens = items(get(b, "vocab")?)?;
    let mut vocab = Vocab::new();
    for (id, tok) in tokens.iter().enumerate() {
        if vocab.intern(text_of(tok)?) != id {
            return Err(format!("vocabulary token {id} is repeated or out of place"));
        }
    }
    if vocab.len() != tokens.len() {
        return Err("the vocabulary lacks its reserved tokens".into());
    }
    let bound = |v: &Json| match items(v)? {
        [o, c, min, max] => Ok((
            (ObjectId(int(o)?), int(c)?),
            ColumnStats {
                min: uint(min)? as i64,
                max: uint(max)? as i64,
            },
        )),
        _ => Err("expected an [object, column, min, max] bound".to_owned()),
    };
    let stats: HashMap<_, _> = list_of(get(b, "binner")?, bound)?.into_iter().collect();
    let object_union: BTreeSet<ObjectId> =
        list_of(get(b, "object_union")?, |o| int(o).map(ObjectId))?
            .into_iter()
            .collect();
    let groups = list_of(get(b, "groups")?, |g| read_group(g, &cfg, vocab.len()))?;
    let tw = TrainedWorkload {
        name: text_of(get(b, "name")?)?.to_owned(),
        vocab,
        binner: ValueBinner { stats },
        groups: Arc::new(groups),
        object_union,
        cfg,
    };
    Ok((uint(get(b, "version")?)?, tw))
}

fn read_config(c: &Json) -> Result<PythiaConfig, String> {
    let n = |key: &str| int::<usize>(get(c, key)?);
    let name = text_of(get(c, "grouping")?)?;
    let grouping = [
        Grouping::PerObject,
        Grouping::TableIndexPair,
        Grouping::Workload,
    ]
    .into_iter()
    .find(|g| format!("{g:?}") == name)
    .ok_or_else(|| format!("unknown grouping '{name}'"))?;
    Ok(PythiaConfig {
        embed_dim: n("embed_dim")?,
        heads: n("heads")?,
        layers: n("layers")?,
        ff_dim: n("ff_dim")?,
        decoder_hidden: n("decoder_hidden")?,
        epochs: n("epochs")?,
        batch_size: n("batch_size")?,
        lr: f32_bits(get(c, "lr")?)?,
        pos_weight: f32_bits(get(c, "pos_weight")?)?,
        threshold: option_of(get(c, "threshold")?, f32_bits)?,
        max_seq_len: n("max_seq_len")?,
        partition_pages: n("partition_pages")?,
        min_object_support: f64::from_bits(uint(get(c, "min_object_support")?)?),
        top_k: option_of(get(c, "top_k")?, int)?,
        grouping,
        seed: uint(get(c, "seed")?)?,
    })
}

fn read_span(s: &Json) -> Result<Span, String> {
    let object = ObjectId(int(get(s, "object")?)?);
    let n_pages: u32 = int(get(s, "n_pages")?)?;
    let pages = match get(s, "pages") {
        Ok(pages) => Pages::List(list_of(pages, int)?),
        Err(_) => Pages::Range {
            first: int(get(s, "first")?)?,
            len: int(get(s, "len")?)?,
        },
    };
    let in_object = match &pages {
        Pages::Range { first, len } => *len > 0 && first.checked_add(*len) <= Some(n_pages),
        Pages::List(list) => !list.is_empty() && list.iter().all(|&p| p < n_pages),
    };
    if !in_object {
        return Err(format!(
            "a span of object {object:?} is empty or past its {n_pages} pages"
        ));
    }
    Ok(Span {
        object,
        n_pages,
        pages,
    })
}

fn read_tensor(t: &Json) -> Result<Tensor, String> {
    let (rows, cols) = (
        int::<usize>(get(t, "rows")?)?,
        int::<usize>(get(t, "cols")?)?,
    );
    let data = list_of(get(t, "data")?, f32_bits)?;
    if rows.checked_mul(cols) != Some(data.len()) {
        return Err(format!(
            "a tensor's data length {} disagrees with its shape {rows}×{cols}",
            data.len()
        ));
    }
    Ok(Tensor::from_vec(rows, cols, data))
}

/// One group, built by [`PlanClassifier::new`] once the stored tensors are
/// known to be as large as what it would allocate, then given them.
fn read_group(g: &Json, cfg: &PythiaConfig, vocab_size: usize) -> Result<ModelGroup, String> {
    let spans = list_of(get(g, "spans")?, read_span)?;
    let head_labels: Vec<usize> = list_of(get(g, "head_labels")?, int)?;
    let labels = spans.iter().map(Span::len).sum::<usize>();
    let headed = head_labels
        .iter()
        .try_fold(0usize, |sum, &n| sum.checked_add(n));
    if head_labels.is_empty() || head_labels.contains(&0) || headed != Some(labels) {
        return Err(format!(
            "a group's head label counts {head_labels:?} do not partition its {labels} labels"
        ));
    }
    let tensors = list_of(get(g, "tensors")?, read_tensor)?;
    let stored = tensors.iter().map(Tensor::len).sum::<usize>();
    let needed = PlanClassifier::scalar_count(cfg, vocab_size, &head_labels);
    if needed != Some(stored) {
        return Err(format!(
            "a group's tensors hold {stored} scalars, but its config and heads need {needed:?}"
        ));
    }
    let mut classifier = PlanClassifier::new(cfg, vocab_size, &head_labels);
    classifier.set_tensors(tensors)?;
    classifier.set_threshold(f32_bits(get(g, "threshold")?)?);
    Ok(ModelGroup { classifier, spans })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    use pythia_db::exec::execute;
    use pythia_db::expr::Pred;
    use pythia_db::plan::PlanNode;
    use pythia_db::types::Schema;
    use pythia_sim::rng::cases;

    use crate::predictor::train_workload;
    use crate::registry::load_model;

    /// A small star catalog and the file of a narrow model trained on it.
    fn fixture() -> &'static (Database, String) {
        static FIXTURE: OnceLock<(Database, String)> = OnceLock::new();
        FIXTURE.get_or_init(|| {
            let mut db = Database::new();
            let fact = db.create_table("fact", Schema::ints(&["id", "date", "dkey"]));
            let dim = db.create_table("dim", Schema::ints(&["d_id", "attr"]));
            for i in 0..600i64 {
                db.insert(fact, &Database::row([i, i / 2, (i / 4).min(149)]));
            }
            for d in 0..150i64 {
                db.insert(dim, &Database::row([d, d % 9]));
            }
            let idx = db.create_index("dim_pk", dim, 0);
            let plans: Vec<PlanNode> = (0..8)
                .map(|q| PlanNode::IndexNLJoin {
                    outer: Box::new(PlanNode::SeqScan {
                        table: fact,
                        pred: Some(Pred::Between {
                            col: 1,
                            lo: q * 35,
                            hi: q * 35 + 30,
                        }),
                    }),
                    outer_key: 2,
                    inner: dim,
                    inner_index: idx,
                    inner_pred: None,
                })
                .collect();
            let traces: Vec<_> = plans.iter().map(|p| execute(p, &db).1).collect();
            let cfg = PythiaConfig {
                embed_dim: 8,
                heads: 2,
                layers: 1,
                ff_dim: 16,
                decoder_hidden: 16,
                epochs: 1,
                batch_size: 4,
                ..PythiaConfig::fast()
            };
            let tw = train_workload(&db, "star", &plans, &traces, None, &cfg);
            let text = write(5, &tw);
            (db, text)
        })
    }

    /// The byte range of the number after the first `"key":` from byte
    /// `from` of `text` on.
    fn number_at(text: &str, from: usize, key: &str) -> std::ops::Range<usize> {
        let at = from + text[from..].find(&format!("\"{key}\":")).unwrap() + key.len() + 3;
        at..at + text[at..].find(|c: char| !c.is_ascii_digit()).unwrap()
    }

    /// `text` with the body's config field `key` set to `value`.
    fn with_config(text: &str, key: &str, value: u64) -> String {
        let at = number_at(text, text.find("\"config\":").unwrap(), key);
        format!("{}{value}{}", &text[..at.start], &text[at.end..])
    }

    fn refused(text: &str) -> String {
        let err = read(text, &fixture().0)
            .err()
            .expect("the file must be refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        err.to_string()
    }

    #[test]
    fn reading_then_writing_gives_back_the_file() {
        let (db, text) = fixture();
        let (version, tw) = read(text, db).unwrap();
        assert_eq!(version, 5);
        assert!(write(version, &tw) == *text);
    }

    #[test]
    fn named_faults_are_refused() {
        let text = &fixture().1;
        // A format-2 file held floats this reader does not parse; it is
        // refused by its format, which is named.
        let old = r#"{"format":2,"kind":"pythia.model","body":{"version":1,"threshold":0.5}}"#;
        let err = refused(old);
        assert!(err.contains("format 2"), "{err}");
        let err =
            refused(&text.replacen(&format!("{{\"format\":{FORMAT},"), "{\"format\":999,", 1));
        assert!(err.contains("999"), "{err}");
        let err = refused("{\"body\":3}");
        assert!(err.contains("envelope"), "{err}");
        // Another kind: refused with the kind it holds in the message.
        let err =
            refused(&text.replacen("\"kind\":\"pythia.model\"", "\"kind\":\"pythia.trace\"", 1));
        assert!(err.contains("pythia.trace"), "{err}");
        // Widths and a sequence budget no file could hold: refused before
        // the model they describe is allocated (2⁴⁰ × anything is past any
        // memory, so an allocation would abort the test).
        for key in ["embed_dim", "ff_dim", "decoder_hidden", "max_seq_len"] {
            let err = refused(&with_config(text, key, 1 << 40));
            let checked_by = match key {
                "max_seq_len" => "max_seq_len must be at most",
                _ => "scalars",
            };
            assert!(err.contains(checked_by), "{key}: {err}");
        }
        // A tensor one number short of its shape.
        let data = text.find("\"data\":[").unwrap() + "\"data\":[".len();
        let first = data + text[data..].find(',').unwrap() + 1;
        let short = format!("{}{}", &text[..data], &text[first..]);
        let err = refused(&short);
        assert!(err.contains("disagrees with its shape"), "{err}");
        // The embedding table transposed: as many scalars, the wrong shape.
        let (vocab, dim) = (read(text, &fixture().0).unwrap().1.vocab.len(), 8);
        let shape = format!("\"rows\":{vocab},\"cols\":{dim},");
        let err = refused(&text.replacen(&shape, &format!("\"rows\":{dim},\"cols\":{vocab},"), 1));
        assert!(err.contains("but the model's is"), "{err}");
    }

    /// A file cut short, or with one byte changed anywhere to a printable
    /// one, is refused without a panic. Half the cases land in the first
    /// 2 kB, where the envelope, the checksum and the config are, and half the
    /// changed bytes are digits: a number changed to another still parses,
    /// so only the checksum refuses it.
    #[test]
    fn a_truncated_or_changed_file_is_refused() {
        cases(256, |rng| {
            let at = rng.gen_range(0.0f64..1.0);
            let in_head = rng.gen_range(0..=1) == 1;
            let truncate = rng.gen_range(0..=1) == 1;
            let byte = if rng.gen_range(0..=1) == 1 {
                rng.gen_range(b'0'..=b'9')
            } else {
                rng.gen_range(0x20u8..0x7f)
            };
            let (db, text) = fixture();
            let span = if in_head {
                text.len().min(2048)
            } else {
                text.len()
            };
            let pos = ((at * span as f64) as usize).min(text.len() - 1);
            let mut bytes = text.as_bytes().to_vec();
            if truncate {
                bytes.truncate(pos);
            } else {
                bytes[pos] = if bytes[pos] == byte { byte ^ 1 } else { byte };
            }
            let path = std::env::temp_dir().join(format!(
                "pythia_model_file_fault_{}.json",
                std::process::id()
            ));
            std::fs::write(&path, &bytes).unwrap();
            let loaded = load_model(&path, db);
            let _ = std::fs::remove_file(&path);
            assert!(loaded.is_err(), "accepted a file changed at byte {}", pos);
        });
    }
}
