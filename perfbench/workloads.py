"""The benchmark's four workloads.

Each workload turns ``--seed`` into its inputs (data, a pool of distinct
queries, and an operation stream), builds the system from nothing
(:meth:`Workload.build`), and builds the interpretive reference mediator
(``compile=False, fuse=False``) that gates every answer.  The reasons
each workload exists are in ``perfbench/README.md``.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from repro.datasets import (
    JOE_CHUNG_QUERY,
    MS1,
    build_scaled_scenario,
    build_scenario,
    probe_keys,
    record_stream,
    route_records,
)
from repro.external.registry import default_registry
from repro.mediator import Mediator
from repro.oem import structural_key
from repro.oem.builders import atom, obj
from repro.reliability import FaultInjectingSource
from repro.reliability.clock import MonotonicClock
from repro.wrappers import (
    HashPartition,
    OEMStoreWrapper,
    ShardedSource,
    SourceRegistry,
    SQLiteOEMStoreWrapper,
    shard_name,
)

#: No mediator runs more workers than the 2 cores the benchmark targets.
PARALLELISM = 2


def answer_key(objects) -> Counter:
    """An answer as a multiset of structural keys (oids and order ignored)."""
    return Counter(structural_key(o) for o in objects)


@dataclass
class Instance:
    """One built system: what queries go to and what the tracer wraps."""

    entry: Mediator
    mediators: list  # every benchmark-built mediator, entry first
    wrappers: list  # leaf wrappers (innermost sources)
    lower_mediators: set = field(default_factory=set)  # mediators used as sources
    wires: list = field(default_factory=list)  # FaultInjectingSource layers
    write_tables: list = field(default_factory=list)
    closers: list = field(default_factory=list)

    def close(self) -> None:
        for mediator in self.mediators:
            mediator.close()
        for close in self.closers:
            close()


class StaticModel:
    """Expected answers of a read-only workload: the reference's."""

    def __init__(self, expected: dict) -> None:
        self.answers = expected

    def expected(self, query: str) -> Counter:
        return self.answers[query]

    def check(self, query: str, objects) -> bool:
        return answer_key(objects) == self.expected(query)


class Workload:
    """Inputs from a seed, plus how to build, query and check the system."""

    name = ""
    writes = False
    #: set-ups at each end of a run; fixed, so memory use does not
    #: depend on how fast the host happens to be
    setup_reps = 3

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.queries: list[str] = []

    def build(self) -> Instance:
        raise NotImplementedError

    def reference(self):
        """``(entry_reference, [mediators to close])`` over the last build."""
        raise NotImplementedError

    def model(self, expected: dict):
        return StaticModel(expected)

    def operations(self):
        """The seeded operation stream: ``("query", text)`` forever."""
        rng = random.Random(self.seed + 1)
        while True:
            yield "query", rng.choice(self.queries)


class PaperQ1(Workload):
    """Q1 on the exact Figure 2.2/2.3 data: tiny sources, so parse, expansion,
    planning and the per-query fixed cost dominate.
    """

    name = "paper_q1"
    setup_reps = 12

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.queries = [JOE_CHUNG_QUERY]

    def build(self) -> Instance:
        scenario = build_scenario()
        self.scenario = scenario
        return Instance(
            entry=scenario.mediator,
            mediators=[scenario.mediator],
            wrappers=[scenario.whois, scenario.cs],
        )

    def reference(self):
        scenario = self.scenario
        reference = _reference_mediator(
            "med", MS1, scenario.registry, scenario.externals
        )
        return reference, [reference]


def _reference_mediator(
    name: str, spec: str, registry, externals, register: bool = False
) -> Mediator:
    """The interpretive reference: no compilation, no fusion."""
    return Mediator(
        name,
        spec,
        registry,
        externals,
        compile=False,
        fuse=False,
        register=register,
    )


#: ``cs`` tables and the field a write changes in each.
_WRITE_FIELDS = {
    "student": ("year", "integer"),
    "employee": ("title", "string"),
}
_TITLES = ("professor", "lecturer", "staff", "postdoc")


@dataclass(frozen=True)
class RowUpdate:
    relation: str
    first: str
    last: str
    old: object
    new: object
    rest: tuple  # the row's remaining columns, written back unchanged


class Ms1Model:
    """Expected MS1 answers, kept up to date with the benchmark's writes.

    Starts from the reference answers and applies each row update to the
    one view object it changes, so every later answer is checked exactly:
    counts stay fixed and the latest written value must appear.
    """

    def __init__(self, expected: dict, query_of: dict) -> None:
        self.query_of = query_of
        self.objects: dict[str, dict] = {}
        for relation, query in query_of.items():
            by_name = {}
            for key in expected[query].elements():
                name = next(v for label, _t, v in key[2] if label == "name")
                by_name[name] = key
            self.objects[relation] = by_name

    def expected(self, query: str) -> Counter:
        relation = next(r for r, q in self.query_of.items() if q == query)
        return Counter(self.objects[relation].values())

    def check(self, query: str, objects) -> bool:
        return answer_key(objects) == self.expected(query)

    def after_write(self, update: RowUpdate) -> None:
        label, kind = _WRITE_FIELDS[update.relation]
        by_name = self.objects[update.relation]
        name = f"{update.first} {update.last}"
        key = by_name[name]
        children = set(key[2])
        children.remove((label, kind, update.old))
        children.add((label, kind, update.new))
        by_name[name] = (key[0], key[1], frozenset(children))


class Ms1Scaled(Workload):
    """MS1 at 600 people: ~300 per-tuple probes into the relational cs wrapper
    per query, interleaved with cs row updates.
    """

    name = "ms1_scaled"
    writes = True
    # 600, not the 800 of the scaling experiments: at 800 a query takes
    # 220-390 ms on a 2-core host, too slow for 100 queries (a p90 with
    # 10 samples beyond it) in one run
    people = 600
    # one build takes 0.15-0.3 s; with 3 per end the median of 6 spread
    # 0.27 over ten seeds on a noisy host
    setup_reps = 10

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        if smoke:
            self.people = 60
        self.query_of = {
            relation: f"P :- P:<cs_person {{<rel {relation}>}}>@med"
            for relation in _WRITE_FIELDS
        }
        self.queries = list(self.query_of.values())

    def build(self) -> Instance:
        # the library's fixed scaled dataset: table sizes do not vary by
        # seed, only the operation stream does
        scenario = build_scaled_scenario(self.people)
        self.scenario = scenario
        self.tables = {
            relation: scenario.cs.database.table(relation)
            for relation in _WRITE_FIELDS
        }
        return Instance(
            entry=scenario.mediator,
            mediators=[scenario.mediator],
            wrappers=[scenario.whois, scenario.cs],
            write_tables=list(self.tables.values()),
        )

    def reference(self):
        scenario = self.scenario
        reference = _reference_mediator(
            "med", MS1, scenario.registry, scenario.externals
        )
        return reference, [reference]

    def model(self, expected: dict) -> Ms1Model:
        # current values of the written field, for choosing new ones
        self.rows = {
            relation: [list(row) for row in table]
            for relation, table in self.tables.items()
        }
        return Ms1Model(expected, self.query_of)

    def operations(self):
        """Queries alternate with row updates, both drawn from the seed."""
        rng = random.Random(self.seed + 1)
        relations = list(_WRITE_FIELDS)
        while True:
            yield "query", self.query_of[rng.choice(relations)]
            relation = rng.choice(relations)
            row = rng.choice(self.rows[relation])
            position = 2  # year (student) or title (employee)
            old = row[position]
            choices = range(1, 6) if relation == "student" else _TITLES
            new = rng.choice([v for v in choices if v != old])
            row[position] = new
            yield "write", RowUpdate(
                relation, row[0], row[1], old, new, tuple(row[3:])
            )

    def write(self, update: RowUpdate) -> None:
        """One ``delete_where`` plus one ``insert`` on the cs table."""
        table = self.tables[update.relation]
        removed = table.delete_where(
            lambda r: r["first_name"] == update.first
            and r["last_name"] == update.last
        )
        if removed != 1:
            raise RuntimeError(
                f"update of {update.first} {update.last} matched"
                f" {removed} row(s)"
            )
        table.insert(update.first, update.last, update.new, *update.rest)


class RuleBlowup(Workload):
    """A 4-rule view queried with 3 conditions: 64 logical rules and 192 source
    calls of which 12 are distinct.
    """

    name = "rule_blowup"
    setup_reps = 8
    stores = 4
    records = 50
    b_values = 25  # each b value appears exactly twice per store
    pool = 8
    conditions = 3

    SPEC = "\n".join(
        f"<v {{<a A> <b B>}}> :- <rec {{<a A> <b B>}}>@s{i} ;"
        for i in range(4)
    )

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        rng = random.Random(seed)
        # unique a values and exactly two records per b value per store,
        # so every query matches 8 objects per condition and answers
        # 8^3 = 512 objects whatever the seed
        a_values = rng.sample(range(1_000_000), self.stores * self.records)
        self.data = []
        for index in range(self.stores):
            bs = [f"b{j}" for j in range(self.b_values)] * (
                self.records // self.b_values
            )
            rng.shuffle(bs)
            a_slice = a_values[index * self.records : (index + 1) * self.records]
            self.data.append(list(zip(a_slice, bs)))
        picks: list[tuple] = []
        while len(picks) < self.pool:
            pick = tuple(rng.sample(range(self.b_values), self.conditions))
            if pick not in picks:
                picks.append(pick)
        self.queries = [self._query(pick) for pick in picks]

    def _query(self, pick) -> str:
        variables = [f"A{i}" for i in range(len(pick))]
        head = " ".join(
            f"<{label} {var}>" for label, var in zip("xyz", variables)
        )
        tail = " AND ".join(
            f"<v {{<a {var}> <b 'b{b}'>}}>@med"
            for var, b in zip(variables, pick)
        )
        return f"<r {{{head}}}> :- {tail}"

    def build(self) -> Instance:
        registry = SourceRegistry()
        wrappers = []
        for index, rows in enumerate(self.data):
            wrapper = OEMStoreWrapper(
                f"s{index}",
                [obj("rec", atom("a", a), atom("b", b)) for a, b in rows],
            )
            registry.register(wrapper)
            wrappers.append(wrapper)
        self.registry = registry
        mediator = Mediator("med", self.SPEC, registry, default_registry())
        return Instance(entry=mediator, mediators=[mediator], wrappers=wrappers)

    def reference(self):
        reference = _reference_mediator(
            "med", self.SPEC, self.registry, default_registry()
        )
        return reference, [reference]


class ShardedStack(Workload):
    """Mediator stacked on a mediator over a 4-way sharded SQLite store behind
    1 ms wire latency: semi-joins, fan-out and wire wait.
    """

    name = "sharded_stack"
    setup_reps = 2
    records = 50_000
    probes = 384
    groups = 16
    shards = 4
    latency = 0.001

    MED_SPEC = (
        "<hit {<g G> <k K> <p P>}> :- <probe {<grp G> <key K>}>@driver"
        " AND <rec {<key K> <payload P>}>@big"
    )
    TOP_SPEC = "<result {<g G> <k K> <p P>}> :- <hit {<g G> <k K> <p P>}>@med"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        if smoke:
            self.records = 2_000
            self.probes = 64
        keys = probe_keys(self.probes, self.records, seed=seed)
        self.probe_rows = [
            (index % self.groups, key) for index, key in enumerate(keys)
        ]
        self.queries = [
            f"R :- R:<result {{<g {group}>}}>@top"
            for group in range(self.groups)
        ]

    def build(self) -> Instance:
        clock = MonotonicClock()
        partition = HashPartition("key", self.shards)
        stores = [
            SQLiteOEMStoreWrapper(shard_name("big", index))
            for index in range(self.shards)
        ]
        for index, batch in route_records(
            record_stream(self.records), partition, self.shards
        ):
            stores[index].load_records("rec", batch)
        driver = OEMStoreWrapper(
            "driver",
            [
                obj("probe", atom("grp", group), atom("key", key))
                for group, key in self.probe_rows
            ],
        )
        wires = [
            FaultInjectingSource(store, latency=self.latency, clock=clock)
            for store in stores
        ]
        driver_wire = FaultInjectingSource(
            driver, latency=self.latency, clock=clock
        )
        self.big = ShardedSource("big", wires, partition)
        self.driver_wire = driver_wire
        registry = SourceRegistry()
        registry.register(driver_wire)
        registry.register(self.big)
        med = Mediator(
            "med",
            self.MED_SPEC,
            registry,
            default_registry(),
            parallelism=PARALLELISM,
        )
        top = Mediator(
            "top",
            self.TOP_SPEC,
            registry,
            default_registry(),
            parallelism=PARALLELISM,
        )
        return Instance(
            entry=top,
            mediators=[top, med],
            wrappers=[driver, *stores],
            lower_mediators={"med"},
            wires=[driver_wire, *wires],
            closers=[store.close for store in stores],
        )

    def reference(self):
        registry = SourceRegistry()
        registry.register(self.driver_wire)
        registry.register(self.big)
        # the lower reference registers itself, so the upper one's @med
        # calls reach it
        med = _reference_mediator(
            "med", self.MED_SPEC, registry, default_registry(), register=True
        )
        top = _reference_mediator(
            "top", self.TOP_SPEC, registry, default_registry()
        )
        return top, [top, med]


WORKLOADS = {
    cls.name: cls for cls in (PaperQ1, Ms1Scaled, RuleBlowup, ShardedStack)
}
