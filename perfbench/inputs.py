"""Seeded inputs for every workload.

Everything here is a pure function of the workload seed (plus fixed
constants), so one seed always yields the same documents, the same
serve schedule and the same synthetic vocabulary documents.  The
program under test only ever sees the generated XML.
"""

from __future__ import annotations

import bisect
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

#: Fixtures kept between runs (rebuilt when their parameters drift).
CACHE = Path(__file__).resolve().parent / "_cache"
#: Documents per corpus seed: the Table 3 per-dataset counts sum to 60.
TABLE3_DOCS_PER_SEED = 60
#: Corpus seeds of different workload seeds never overlap.
SEED_STRIDE = 10_000

#: The 100k synthetic network (the scale the RXPD shard exists for).
SYNTH_PARAMS = {"n_concepts": 100_000, "seed": 20260808, "gloss_style": "local"}
#: Zipf exponent for tags/values drawn from the synthetic vocabulary.
VOCAB_ZIPF_S = 1.0
#: Table 3 datasets whose shapes the synthetic documents do not take.  At
#: 100k concepts a play (about 180 nodes) costs about 0.8 s, ten times
#: any other document: the ten plays of a corpus seed would be 70% of
#: the work, so a pass's cost would be a draw of ten documents.
SYNTH_SKIPPED_DATASETS = ("shakespeare",)
#: Synthetic documents per corpus seed: the Table 3 mix without the plays.
SYNTH_DOCS_PER_SEED = 50


def table3_documents(seed: int, n_corpus_seeds: int) -> list[tuple[str, str]]:
    """The Table 3 mix at ``n_corpus_seeds`` consecutive corpus seeds.

    Names are ``<corpus seed>/<dataset>/<doc id>``.  Raises
    ``ValueError`` if any text repeats: the batch workloads are defined
    as document-cache misses.
    """
    from repro.datasets import generate_test_corpus

    base = seed * SEED_STRIDE
    docs: list[tuple[str, str]] = []
    for corpus_seed in range(base, base + n_corpus_seeds):
        for doc in generate_test_corpus(corpus_seed):
            docs.append((f"{corpus_seed}/{doc.dataset}/{doc.doc_id}", doc.xml))
    if len({xml for _, xml in docs}) != len(docs):
        raise ValueError(f"seed {seed}: a Table 3 text repeats")
    return docs


def oracle_sample(docs: list[tuple[str, str]]) -> list[tuple[str, str]]:
    """A fixed per-dataset sample: the first document of each dataset."""
    seen: dict[str, tuple[str, str]] = {}
    for name, xml in docs:
        seen.setdefault(name.split("/")[1], (name, xml))
    return [seen[key] for key in sorted(seen)]


def interleaved(docs: list[tuple[str, str]], rng: random.Random) -> list[tuple[str, str]]:
    """Order ``docs`` so that every prefix holds about the Table 3 mix.

    Each dataset's documents are spread evenly over the order (a
    jittered systematic sample), so the head of a Zipf popularity
    ranking, where most requests land, has the same dataset mix on
    every seed.
    """
    by_dataset: dict[str, list[tuple[str, str]]] = {}
    for doc in docs:
        by_dataset.setdefault(doc[0].split("/")[1], []).append(doc)
    keyed = []
    for dataset in sorted(by_dataset):
        items = by_dataset[dataset]
        rng.shuffle(items)
        keyed += [((i + rng.random()) / len(items), doc) for i, doc in enumerate(items)]
    keyed.sort(key=lambda pair: pair[0])
    return [doc for _, doc in keyed]


class Zipf:
    """Seeded Zipf draws over ranks ``0..n-1`` (rank 0 most popular)."""

    def __init__(self, n: int, s: float, rng: random.Random):
        total = 0.0
        self._cumulative = []
        for rank in range(n):
            total += 1.0 / (rank + 1) ** s
            self._cumulative.append(total)
        self._total = total
        self._rng = rng

    def draw(self) -> int:
        point = self._rng.random() * self._total
        return min(
            bisect.bisect_right(self._cumulative, point),
            len(self._cumulative) - 1,
        )


# -- serve schedule ------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    """One scheduled request: due offset (s) from phase start, and text."""

    due_s: float
    name: str
    xml: str


class RequestStream:
    """The texts of one serve session; about ``repeat_share`` are repeats.

    A new text is the next document of ``docs``; a repeat picks an
    earlier text with Zipf popularity by order of first appearance (the
    first text seen is the most popular).  The repeat share is the same
    at every point of the session, so phases of different lengths see
    the same document-cache hit share.
    """

    def __init__(self, docs, repeat_share: float, zipf_s: float,
                 rng: random.Random):
        self._new = iter(docs)
        self._repeat_share = repeat_share
        self._zipf_s = zipf_s
        self._rng = rng
        self._seen: list[tuple[str, str]] = []
        self._cumulative: list[float] = []

    def __iter__(self):
        return self

    def __next__(self) -> tuple[str, str]:
        if self._seen and self._rng.random() < self._repeat_share:
            return self.repeat()
        return self.new()

    def new(self) -> tuple[str, str]:
        doc = next(self._new)
        self._seen.append(doc)
        weight = 1.0 / len(self._seen) ** self._zipf_s
        self._cumulative.append((self._cumulative[-1] if self._cumulative else 0.0) + weight)
        return doc

    def repeat(self) -> tuple[str, str]:
        point = self._rng.random() * self._cumulative[-1]
        rank = bisect.bisect_right(self._cumulative, point)
        return self._seen[min(rank, len(self._seen) - 1)]

    def session(self, n_new: int) -> list[tuple[str, str]]:
        """The next ``n_new`` new texts plus exactly the repeat share of
        repeats, at seeded positions (the first request is new)."""
        total = round(n_new / (1 - self._repeat_share))
        repeats = set(self._rng.sample(range(1, total), total - n_new))
        return [self.repeat() if at in repeats else self.new() for at in range(total)]


def poisson_schedule(
    rate: float, duration_s: float, stream: RequestStream, rng: random.Random
) -> list[Request]:
    """Open-loop Poisson arrivals at ``rate`` for ``duration_s``."""
    requests = []
    due = rng.expovariate(rate)
    while due < duration_s:
        name, xml = next(stream)
        requests.append(Request(due, name, xml))
        due += rng.expovariate(rate)
    return requests


# -- the 100k synthetic network ------------------------------------------------


@dataclass(frozen=True)
class SynthFixture:
    network_json: Path
    shard: Path
    vocab: Path
    fingerprint: str


def synth_fixture(log=print) -> SynthFixture:
    """Build (or reuse) the 100k network, its RXPD shard and vocabulary.

    The cache under ``perfbench/_cache`` is trusted only when its
    recorded parameters equal :data:`SYNTH_PARAMS` and the shard header
    carries the recorded network fingerprint; any drift rebuilds all of
    it.  The one-off build (about a minute) is benchmark set-up, never
    timed.
    """
    from repro.runtime.pack import PackedIndex, PackedIndexError
    from repro.runtime.store import read_shard_header, write_shard
    from repro.semnet.generator import GeneratorConfig, generate_network
    from repro.semnet.io import load_network, save_network

    stem = f"synth-{SYNTH_PARAMS['n_concepts'] // 1000}k"
    cache = CACHE
    net_path = cache / f"{stem}.network.json"
    shard_path = cache / f"{stem}.rxpd"
    vocab_path = cache / f"{stem}.vocab.json"
    meta_path = cache / f"{stem}.meta.json"

    def cached_fingerprint() -> str | None:
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            header = read_shard_header(shard_path)
        except (ValueError, OSError, PackedIndexError):
            return None
        if not (net_path.exists() and vocab_path.exists()):
            return None
        stamp = header["fingerprint"]
        if meta.get("params") != SYNTH_PARAMS or not stamp:
            return None
        if not meta.get("fingerprint", "").startswith(stamp):
            return None
        return meta["fingerprint"]

    fingerprint = cached_fingerprint()
    if fingerprint is None:
        log(f"building the {stem} fixture (one-off)")
        cache.mkdir(parents=True, exist_ok=True)
        save_network(generate_network(GeneratorConfig(**SYNTH_PARAMS)), net_path)
        # Reload: consumers see the JSON file's fingerprint.
        network = load_network(net_path)
        fingerprint = network.fingerprint()
        write_shard(PackedIndex(network), shard_path, fingerprint=fingerprint)
        words = sorted(network.words())
        random.Random(SYNTH_PARAMS["seed"]).shuffle(words)
        vocab_path.write_text(json.dumps(words), encoding="utf-8")
        meta_path.write_text(
            json.dumps({"params": SYNTH_PARAMS, "fingerprint": fingerprint}),
            encoding="utf-8",
        )
    return SynthFixture(net_path, shard_path, vocab_path, fingerprint)


_TAG = re.compile(r"<(/?)([A-Za-z_][\w.\-]*)")
_TEXT = re.compile(r">([^<]+)<")


def vocab_documents(
    seed: int, n_corpus_seeds: int, vocab: list[str]
) -> list[tuple[str, str]]:
    """Table 3 tree shapes with tags and values from the synthetic vocabulary.

    Each Table 3 document (but those of :data:`SYNTH_SKIPPED_DATASETS`)
    keeps its element structure; every distinct tag becomes one
    Zipf-drawn vocabulary word (consistently within the document) and
    every value word another draw, so the working set is the network's
    skewed vocabulary rather than the curated lexicon.
    """
    rng = random.Random(seed)
    zipf = Zipf(len(vocab), VOCAB_ZIPF_S, rng)
    docs = []
    for name, xml in table3_documents(seed, n_corpus_seeds):
        if name.split("/")[1] in SYNTH_SKIPPED_DATASETS:
            continue
        tags: dict[str, str] = {}

        def tag(match: re.Match) -> str:
            if match.group(2) not in tags:
                tags[match.group(2)] = vocab[zipf.draw()]
            return f"<{match.group(1)}{tags[match.group(2)]}"

        def text(match: re.Match) -> str:
            words = match.group(1).split()
            if not words:
                return match.group(0)
            return ">" + " ".join(vocab[zipf.draw()] for _ in words) + "<"

        docs.append((name, _TEXT.sub(text, _TAG.sub(tag, xml))))
    if len({xml for _, xml in docs}) != len(docs):
        raise ValueError(f"seed {seed}: a synthetic text repeats")
    return docs
