//! Seeded input generator. Everything the program under test receives —
//! training text, knowledge-source articles, held-out text and request
//! bodies — is raw text rendered here from a synthetic Source-LDA world.
//!
//! The generator is self-contained (its own RNG, word list and sampling
//! code) so that a change to the program can never change the inputs the
//! benchmark feeds it: the same seed gives the same bytes on every commit.

use crate::workload::{Requests, Workload};
use std::collections::HashSet;

/// xoshiro256** seeded through SplitMix64.
pub struct Rng([u64; 4]);

impl Rng {
    pub fn new(seed: u64) -> Self {
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        Rng([next(), next(), next(), next()])
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
        let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 32) * n as u64) >> 32) as usize
    }

    fn normal(&mut self) -> f64 {
        let u = 1.0 - self.f64();
        let v = self.f64();
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }

    /// Gamma(shape, 1) by Marsaglia–Tsang (with the `shape < 1` boost).
    fn gamma(&mut self, shape: f64) -> f64 {
        if shape < 1.0 {
            let u = 1.0 - self.f64();
            return self.gamma(shape + 1.0) * u.powf(1.0 / shape);
        }
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = self.normal();
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u = 1.0 - self.f64();
            if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
                return d * v;
            }
        }
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Inverse-CDF sampler over fixed weights.
pub struct Cdf(Vec<f64>);

impl Cdf {
    pub fn new(weights: &[f64]) -> Self {
        let mut acc = 0.0;
        let mut cum: Vec<f64> = weights
            .iter()
            .map(|w| {
                acc += w;
                acc
            })
            .collect();
        for c in &mut cum {
            *c /= acc;
        }
        Cdf(cum)
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.f64();
        self.0.partition_point(|&c| c <= u).min(self.0.len() - 1)
    }
}

/// Zipf(1) weights over `n` ranks.
pub fn zipf(n: usize) -> Vec<f64> {
    (1..=n).map(|r| 1.0 / r as f64).collect()
}

/// The `i`-th pseudo-word: three consonant–vowel syllables and a final
/// `q`, so no word is an English stopword, a number, or shorter than the
/// tokenizer's minimum.
pub fn word(i: usize) -> String {
    const C: &[u8] = b"bcdfghjklmnprstvz";
    const V: &[u8] = b"aeiou";
    let syllables = C.len() * V.len();
    let mut out = String::with_capacity(7);
    let mut x = i;
    for _ in 0..3 {
        let s = x % syllables;
        x /= syllables;
        out.push(C[s / V.len()] as char);
        out.push(V[s % V.len()] as char);
    }
    out.push('q');
    out
}

/// Words the tokenizer must drop: stopwords, one-letter words, numbers.
const FILLER: &[&str] = &["the", "of", "and", "to", "in", "a", "is", "1997", "42"];

/// One topic of the generating world: a Zipf distribution over a random
/// word support, mixed with a uniform background over the vocabulary.
struct Topic {
    support: Vec<usize>,
    cdf: Cdf,
}

/// A generated document: its word indices, the topic of each token, and
/// its raw text.
pub struct Doc {
    pub words: Vec<usize>,
    pub topics: Vec<u32>,
    pub text: String,
}

/// The synthetic world one workload runs on.
pub struct World {
    /// The generator's vocabulary, indexed by word index.
    pub words: Vec<String>,
    /// Knowledge-source articles: `(label, raw text)`.
    pub articles: Vec<(String, String)>,
    /// Truth-space topic labels: one per source topic, then `None` per
    /// hidden (unlabeled) topic.
    pub truth_labels: Vec<Option<String>>,
    pub train: Vec<Doc>,
    /// Held-out documents, restricted to words seen in training.
    pub heldout: Vec<Doc>,
    /// Which word indices occur in the training text.
    pub in_vocab: Vec<bool>,
    /// Request documents: single documents, or the batch pool.
    pub request_docs: Vec<Doc>,
    /// Request bodies in send order (see [`World::request`]).
    batches: Vec<Vec<usize>>,
}

struct Sampler<'a> {
    wl: &'a Workload,
    topics: Vec<Topic>,
    /// Truth-space indices documents draw their topics from.
    active: Vec<usize>,
}

impl Sampler<'_> {
    fn draw_word(&self, topic: usize, rng: &mut Rng) -> usize {
        if rng.f64() < self.wl.background {
            rng.below(self.wl.vocab)
        } else {
            let t = &self.topics[topic];
            t.support[t.cdf.sample(rng)]
        }
    }

    fn doc(&self, len: usize, rng: &mut Rng) -> Doc {
        let k = self.wl.topics_per_doc.min(self.active.len());
        let mut picked: Vec<usize> = Vec::with_capacity(k);
        while picked.len() < k {
            let t = self.active[rng.below(self.active.len())];
            if !picked.contains(&t) {
                picked.push(t);
            }
        }
        let weights: Vec<f64> = picked.iter().map(|_| rng.gamma(1.0)).collect();
        let theta = Cdf::new(&weights);
        let mut words = Vec::with_capacity(len);
        let mut topics = Vec::with_capacity(len);
        for _ in 0..len {
            let t = picked[theta.sample(rng)];
            words.push(self.draw_word(t, rng));
            topics.push(t as u32);
        }
        Doc {
            words,
            topics,
            text: String::new(),
        }
    }
}

/// Render word indices as prose: capitalized sentences, commas, and
/// filler words the tokenizer drops.
fn render(words: &[usize], vocab: &[String], rng: &mut Rng) -> String {
    let mut out = String::with_capacity(words.len() * 10);
    let mut sentence_start = true;
    for (i, &w) in words.iter().enumerate() {
        if rng.f64() < 0.2 {
            let f = FILLER[rng.below(FILLER.len())];
            push_word(&mut out, f, &mut sentence_start);
        }
        push_word(&mut out, &vocab[w], &mut sentence_start);
        if i + 1 == words.len() || rng.f64() < 0.08 {
            out.push('.');
            sentence_start = true;
        } else if rng.f64() < 0.05 {
            out.push(',');
        }
    }
    out
}

fn push_word(out: &mut String, word: &str, sentence_start: &mut bool) {
    if !out.is_empty() {
        out.push(' ');
    }
    if std::mem::take(sentence_start) {
        let mut chars = word.chars();
        if let Some(first) = chars.next() {
            out.extend(first.to_uppercase());
            out.push_str(chars.as_str());
        }
    } else {
        out.push_str(word);
    }
}

impl World {
    pub fn generate(wl: &Workload, seed: u64) -> World {
        let mut rng = Rng::new(seed ^ 0x5eed_0000_0000_0001);
        let words: Vec<String> = (0..wl.vocab).map(word).collect();
        let n_topics = wl.source_topics + wl.hidden_topics;
        let mut ids: Vec<usize> = (0..wl.vocab).collect();
        let ranks = zipf(wl.support);
        let h = ranks.iter().sum::<f64>();
        let mut topics = Vec::with_capacity(n_topics);
        let mut articles = Vec::with_capacity(wl.source_topics);
        let mut truth_labels = Vec::with_capacity(n_topics);
        for t in 0..n_topics {
            rng.shuffle(&mut ids);
            let support = ids[..wl.support].to_vec();
            if t < wl.source_topics {
                let mut article = Vec::new();
                for (r, &w) in support.iter().enumerate() {
                    let c = (wl.article_len as f64 * ranks[r] / h).round().max(1.0) as usize;
                    article.extend(std::iter::repeat_n(w, c));
                }
                rng.shuffle(&mut article);
                let label = format!("topic-{t:04}");
                articles.push((label.clone(), render(&article, &words, &mut rng)));
                truth_labels.push(Some(label));
            } else {
                truth_labels.push(None);
            }
            topics.push(Topic {
                support,
                cdf: Cdf::new(&ranks),
            });
        }
        let mut active: Vec<usize> = (0..wl.source_topics).collect();
        rng.shuffle(&mut active);
        active.truncate(wl.active_topics);
        active.extend(wl.source_topics..n_topics);
        active.sort_unstable();
        let sampler = Sampler { wl, topics, active };

        let mut train: Vec<Doc> = (0..wl.docs)
            .map(|_| sampler.doc(wl.doc_len, &mut rng))
            .collect();
        let mut in_vocab = vec![false; wl.vocab];
        for d in &mut train {
            d.text = render(&d.words, &words, &mut rng);
            for &w in &d.words {
                in_vocab[w] = true;
            }
        }
        let heldout: Vec<Doc> = (0..wl.heldout_docs)
            .map(|_| {
                let mut d = sampler.doc(wl.doc_len, &mut rng);
                let keep: Vec<usize> = (0..d.words.len())
                    .filter(|&i| in_vocab[d.words[i]])
                    .collect();
                d.words = keep.iter().map(|&i| d.words[i]).collect();
                d.topics = keep.iter().map(|&i| d.topics[i]).collect();
                d.text = render(&d.words, &words, &mut rng);
                d
            })
            .collect();

        // Request documents. Distinct in-vocabulary content per document,
        // so the only cache hits are the ones the request mix asks for.
        let (pool, per_doc) = match wl.requests {
            Requests::Single { doc_len, .. } => (wl.request_docs, doc_len),
            Requests::Batch { doc_len, pool, .. } => (pool, doc_len),
        };
        let mut seen: HashSet<Vec<usize>> = HashSet::new();
        let mut request_docs = Vec::with_capacity(pool);
        while request_docs.len() < pool {
            let mut d = sampler.doc(per_doc, &mut rng);
            let key: Vec<usize> = d.words.iter().copied().filter(|&w| in_vocab[w]).collect();
            if key.is_empty() || !seen.insert(key) {
                continue;
            }
            d.text = render(&d.words, &words, &mut rng);
            request_docs.push(d);
        }
        let batches = match wl.requests {
            Requests::Single { .. } => Vec::new(),
            Requests::Batch { docs, pool, .. } => {
                let cdf = Cdf::new(&zipf(pool));
                (0..wl.request_docs)
                    .map(|_| (0..docs).map(|_| cdf.sample(&mut rng)).collect())
                    .collect()
            }
        };
        World {
            words,
            articles,
            truth_labels,
            train,
            heldout,
            in_vocab,
            request_docs,
            batches,
        }
    }

    /// Number of distinct request bodies available.
    pub fn num_requests(&self) -> usize {
        if self.batches.is_empty() {
            self.request_docs.len()
        } else {
            self.batches.len()
        }
    }

    /// Documents of request `i` (wrapping around the stream).
    pub fn request(&self, i: usize) -> Vec<&Doc> {
        if self.batches.is_empty() {
            vec![&self.request_docs[i % self.request_docs.len()]]
        } else {
            self.batches[i % self.batches.len()]
                .iter()
                .map(|&d| &self.request_docs[d])
                .collect()
        }
    }

    /// JSON body of request `i`. Raw text here is letters, digits, spaces
    /// and `.,` only, so it needs no escaping.
    pub fn request_body(&self, i: usize) -> String {
        let docs = self.request(i);
        if self.batches.is_empty() {
            format!("{{\"text\":\"{}\"}}", docs[0].text)
        } else {
            let items: Vec<String> = docs.iter().map(|d| format!("\"{}\"", d.text)).collect();
            format!("{{\"docs\":[{}]}}", items.join(","))
        }
    }

    /// In-vocabulary token count of a document (what `/infer` must report).
    pub fn known_tokens(&self, doc: &Doc) -> usize {
        doc.words.iter().filter(|&&w| self.in_vocab[w]).count()
    }

    /// Training tokens across all documents.
    pub fn train_tokens(&self) -> usize {
        self.train.iter().map(|d| d.words.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_are_distinct() {
        let set: HashSet<String> = (0..50_000).map(word).collect();
        assert_eq!(set.len(), 50_000);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
    }
}
