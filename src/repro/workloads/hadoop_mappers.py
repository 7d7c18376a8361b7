"""Hadoop word-count workload: mappers, dataset generator, reducer sink.

Generates the map phase's intermediate output for a word-count job: each
mapper emits a key-sorted stream of ``(word, count)`` pairs in the Hadoop
key/value wire format (§6.2's datasets of 8/12/16-character words with a
high data-reduction ratio), drawn from a vocabulary built once per job,
not once per mapper.  Mappers stream their output in fixed-size chunks
through their 1 Gbps NICs; the reducer sink collects the combined stream
and exposes completion and throughput.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Tuple

from repro.core.ids import FNV_PRIME, MASK64, fnv1a_memo, hash_fold, stable_hash
from repro.grammar.protocols import hadoop
from repro.net.simnet import Host
from repro.net.tcp import TcpNetwork, TcpSocket
from repro.sim.engine import Engine

_CHUNK_BYTES = 8 * 1024
_ALPHABET = "abcdefghijklmnopqrstuvwxyz"
#: The prefixes :func:`make_word` extends with :func:`hash_fold`.
_WORD = stable_hash(("word",))
_MORE = stable_hash(("more",))


def make_word(index: int, word_len: int) -> str:
    """Deterministic pseudo-random word of exactly ``word_len`` chars."""
    h = hash_fold(hash_fold(_WORD, index), word_len)
    chars = []
    for _ in range(word_len):
        chars.append(_ALPHABET[h % 26])
        h //= 26
        if h == 0:  # ~13 chars in: ``stable_hash(("more", index, n))``
            h = hash_fold(hash_fold(_MORE, index), len(chars))
    return "".join(chars)


def make_vocabulary(size: int, word_len: int) -> List[str]:
    """A job's sorted distinct words: every mapper draws from the same."""
    return sorted({make_word(i, word_len) for i in range(size)})


def mapper_pairs(
    mapper_index: int, total_bytes: int, words: List[str]
) -> List[Tuple[str, str]]:
    """One mapper's sorted (word, count) pairs over a job's ``words``."""
    pair_bytes = 2 + 4 + len(words[0]) + 2  # key/value lens + key + ~value
    n_pairs = max(1, total_bytes // pair_bytes)
    n_words = len(words)
    mapper = stable_hash((mapper_index,))
    c = stable_hash("c")
    pairs: List[Tuple[str, str]] = []
    for i in range(n_pairs):
        # ``stable_hash((mapper_index, i))`` picks the word and
        # ``stable_hash((mapper_index, i, "c"))`` the count: two
        # :func:`hash_fold` steps, taken inline.
        h = (mapper ^ fnv1a_memo(i)) * FNV_PRIME & MASK64
        count = 1 + ((h ^ c) * FNV_PRIME & MASK64) % 9
        pairs.append((words[h % n_words], str(count)))
    pairs.sort(key=itemgetter(0))
    # Pre-combine duplicates within the mapper (mappers run combiners
    # locally in Hadoop), keeping each stream's keys unique and sorted.
    combined: List[Tuple[str, str]] = []
    for key, value in pairs:
        if combined and combined[-1][0] == key:
            combined[-1] = (key, str(int(combined[-1][1]) + int(value)))
        else:
            combined.append((key, value))
    return combined


def generate_mapper_output(
    mapper_index: int,
    total_bytes: int,
    word_len: int,
    vocabulary: int = 512,
) -> List[Tuple[str, str]]:
    """One mapper's sorted (word, count) pairs, ~``total_bytes`` on the wire.

    A high data-reduction ratio comes from the bounded vocabulary: every
    mapper sees (a subset of) the same words, so the combiner tree shrinks
    the stream roughly by the number of mappers.
    """
    words = make_vocabulary(vocabulary, word_len)
    return mapper_pairs(mapper_index, total_bytes, words)


class Mapper:
    """Streams one mapper's output to the aggregator in chunks."""

    def __init__(
        self,
        engine: Engine,
        tcpnet: TcpNetwork,
        host: Host,
        target: Host,
        port: int,
        pairs: List[Tuple[str, str]],
    ):
        self.engine = engine
        self.tcpnet = tcpnet
        self.host = host
        self.target = target
        self.port = port
        self.payload = hadoop.encode_pairs(pairs)
        self.bytes_total = len(self.payload)

    def start(self) -> None:
        self.tcpnet.connect(self.host, self.target, self.port, self._stream)

    def _stream(self, socket: TcpSocket) -> None:
        # Send the full stream in NIC-paced chunks, then close (EOF drives
        # the foldt tree's drain).
        for offset in range(0, len(self.payload), _CHUNK_BYTES):
            socket.send(self.payload[offset : offset + _CHUNK_BYTES])
        socket.close()


class ReducerSink:
    """The reducer endpoint: collects the combined stream."""

    def __init__(
        self, engine: Engine, tcpnet: TcpNetwork, host: Host, port: int = 9000
    ):
        self.engine = engine
        self.host = host
        self.parser = hadoop.codec().parser()
        self.pairs: List[Tuple[str, str]] = []
        self.bytes_received = 0
        self.finished_at = None
        tcpnet.listen(host, port, self._accept)

    def _accept(self, socket: TcpSocket) -> None:
        def on_data(data: bytes) -> None:
            self.bytes_received += len(data)
            self.parser.feed(data)
            for record in self.parser.messages():
                fields = record._fields
                self.pairs.append((fields["key"], fields["value"]))

        socket.on_receive(on_data)
        socket.on_close(self._on_close)

    def _on_close(self) -> None:
        self.finished_at = self.engine.now

    def counts(self) -> Dict[str, int]:
        return {key: int(value) for key, value in self.pairs}


def reference_wordcount(
    mapper_outputs: List[List[Tuple[str, str]]]
) -> Dict[str, int]:
    """Ground-truth combined counts, for end-to-end verification."""
    totals: Dict[str, int] = {}
    for pairs in mapper_outputs:
        for key, value in pairs:
            totals[key] = totals.get(key, 0) + int(value)
    return totals
