"""File formats: network specs, CSV datasets, session snapshots, networks.

All structured files are JSON with a ``format`` tag and integer ``version``
so stale or foreign files fail cleanly.  Serialization is canonical
(sorted keys, sorted node lists, no whitespace variation): the same
in-memory state always produces the same bytes, and floats round-trip
exactly through their shortest decimal form.

The network spec is the textual equivalent of the expert's annotated
graph: the variable ordering, the value labels, and one prior probability
per arc (1 mandatory, 0 forbidden, in between uncertain).

CSV datasets carry one header row of variable names (any column order)
and value labels as cells; parsing is strict, rejecting the whole file on
the first unknown label or missing cell, with row/column diagnostics.

A session snapshot holds the example log and, per stored parent set, its
key, its status and its expansion state.  It stores nothing it can
derive: no prior, concentration or parents (they follow from the key and
the spec), and no counts, scores or fits (loading feeds the whole log to
one ``observe_batch``, which counts every stored set), so none of them
can disagree with the spec or the log.  The status is kept: deriving it
would score every stored set.
"""

from __future__ import annotations

import csv
import io
import json
import os
import stat

import numpy as np

from .domain import (
    ArcPriorMatrix,
    ConcreteNetwork,
    DomainSchema,
    Example,
    PriorConfig,
    VariableSpec,
)
from .engine import SCORING_MODELS, CombinedNetwork, init, observe_batch
from .lattice import (
    ExpansionFlag,
    LatticeNode,
    LatticeStateError,
    NodeStatus,
    ParentLattice,
    check_lattice,
    insert_node,
)

SPEC_FORMAT = "bnrefine-spec"
SESSION_FORMAT = "bnrefine-session"
NETWORK_FORMAT = "bnrefine-network"
SMOOTHED_FORMAT = "bnrefine-smoothed"
FORMAT_VERSION = 1  # spec, network and smoothed documents
# 8 keeps a node's key, status and expansion; 7 also the log rows it had
# absorbed; 6 also its fits; 5 also each lattice's last_refine_n; 4 also a
# node's log_prior and open/expanded flags; 3 also model scores; 2 also counts
# and log_ml; 1 also dead nodes
SESSION_VERSION = 8


class SpecFormatError(ValueError):
    """A network spec document is malformed; message carries the location."""


class SessionFormatError(ValueError):
    """A session/network file is missing, corrupt, or from another version."""


class CsvFormatError(ValueError):
    """A data file does not match the schema; message carries row/column."""


def _atomic_write(path: str, data: str) -> None:
    """Write ``data`` to a temp file beside ``path``, then replace ``path``
    with it.  The file keeps the mode a plain write would leave: an existing
    file's own, or 0666 less the umask for a new one.  A failure leaves no
    temp file and is raised as an ``OSError`` naming ``path``, never the
    temp file the user did not ask for."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        name = os.path.join(directory, f".bnrefine-{os.urandom(8).hex()}")
        # not mkstemp, whose file is 0600 whatever the umask
        fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        tmp = name
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(data)
        if os.path.exists(path):  # a new file took its mode from the umask
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        os.replace(tmp, path)
    except OSError as error:
        raise OSError(error.errno, error.strerror, path) from error
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _dump(document: dict) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"


# -- network spec --------------------------------------------------------


def parse_spec(text: str) -> tuple[DomainSchema, ArcPriorMatrix, PriorConfig]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise SpecFormatError(f"not valid JSON: {err}") from None
    if not isinstance(doc, dict) or doc.get("format") != SPEC_FORMAT:
        raise SpecFormatError(f"missing format tag {SPEC_FORMAT!r}")
    if doc.get("version") != FORMAT_VERSION or type(doc["version"]) is not int:
        raise SpecFormatError(f"unsupported spec version {doc.get('version')!r}")

    schema = _parse_variables(doc.get("variables"), SpecFormatError)
    default_prior = _spec_number(doc.get("default_prior", 0.5), "default_prior")
    alpha = _spec_number(doc.get("alpha", 1.0), "alpha")
    arcs = doc.get("arcs", [])
    if not isinstance(arcs, list):
        raise SpecFormatError(f"arcs: {arcs!r} is not a list")
    entries: dict[tuple[int, int], float] = {}
    for i, arc in enumerate(arcs):
        where = f"arcs[{i}]"
        if not isinstance(arc, dict) or not {"from", "to", "prior"} <= arc.keys():
            raise SpecFormatError(f"{where}: needs 'from', 'to', 'prior'")
        for end in ("from", "to"):
            if not isinstance(arc[end], str):
                raise SpecFormatError(f"{where}: {end} {arc[end]!r} is not a variable name")
        try:
            y = schema.position(arc["from"])
            x = schema.position(arc["to"])
        except ValueError as err:
            raise SpecFormatError(f"{where}: {err}") from None
        if y >= x:
            raise SpecFormatError(
                f"{where}: {arc['from']!r} does not precede {arc['to']!r} in the ordering"
            )
        p = _spec_number(arc["prior"], f"{where}: prior")
        if not 0.0 <= p <= 1.0:
            raise SpecFormatError(f"{where}: prior {p!r} outside [0,1]")
        if (y, x) in entries:
            raise SpecFormatError(f"{where}: duplicate arc {arc['from']}->{arc['to']}")
        entries[(y, x)] = p
    try:
        priors = ArcPriorMatrix(entries=entries, default_prior=default_prior)
        config = PriorConfig(alpha=alpha)
    except ValueError as err:
        raise SpecFormatError(str(err)) from None
    return schema, priors, config


def _parse_variables(raw_vars, error: type[ValueError]) -> DomainSchema:
    """The schema of a document's variable list, or ``error`` naming the entry
    at fault: the one reader of the list in specs and network documents."""
    if not isinstance(raw_vars, list) or not raw_vars:
        raise error("variables: must be a non-empty list")
    specs = []
    for i, entry in enumerate(raw_vars):
        where = f"variables[{i}]"
        if not isinstance(entry, dict) or "name" not in entry or "values" not in entry:
            raise error(f"{where}: needs 'name' and 'values'")
        name, values = entry["name"], entry["values"]
        if not isinstance(name, str):
            raise error(f"{where}: name {name!r} is not a string")
        # a label is read back from CSV text, so it must be text itself
        if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
            raise error(f"{where}: values {values!r} is not a list of strings")
        try:
            specs.append(VariableSpec(name, tuple(values)))
        except ValueError as err:
            raise error(f"{where}: {err}") from None
    try:
        return DomainSchema(tuple(specs))
    except ValueError as err:
        raise error(f"variables: {err}") from None


def _spec_number(value, where: str) -> float:
    """A JSON number as a float; ``true`` and ``false`` are not numbers here."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SpecFormatError(f"{where}: {value!r} is not a number")
    return float(value)


def print_spec(schema: DomainSchema, priors: ArcPriorMatrix, config: PriorConfig) -> str:
    doc = {
        "format": SPEC_FORMAT,
        "version": FORMAT_VERSION,
        "alpha": config.alpha,
        "default_prior": priors.default_prior,
        "variables": [
            {"name": v.name, "values": list(v.values)} for v in schema.variables
        ],
        "arcs": [
            {"from": schema.name(y), "to": schema.name(x), "prior": p}
            for (y, x), p in sorted(priors.entries.items())
        ],
    }
    return _dump(doc)


def load_spec(path: str) -> tuple[DomainSchema, ArcPriorMatrix, PriorConfig]:
    with open(path, encoding="utf-8") as handle:
        return parse_spec(handle.read())


def save_spec(path: str, schema: DomainSchema, priors: ArcPriorMatrix, config: PriorConfig) -> None:
    _atomic_write(path, print_spec(schema, priors, config))


# -- CSV datasets ---------------------------------------------------------


def parse_csv(text: str, schema: DomainSchema) -> list[Example]:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise CsvFormatError("empty file: missing header row") from None
    names = {v.name for v in schema.variables}
    if set(header) != names or len(header) != len(names):
        raise CsvFormatError(
            f"header {header!r} does not match schema variables {sorted(names)!r}"
        )
    columns = [schema.position(name) for name in header]
    value_index = [
        {label: i for i, label in enumerate(v.values)} for v in schema.variables
    ]
    examples: list[Example] = []
    for row_number, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise CsvFormatError(f"row {row_number}: expected {len(header)} cells, got {len(row)}")
        values = [0] * len(schema)
        for cell, x in zip(row, columns):
            if cell == "":
                raise CsvFormatError(
                    f"row {row_number}, column {schema.name(x)!r}: missing value"
                )
            try:
                values[x] = value_index[x][cell]
            except KeyError:
                raise CsvFormatError(
                    f"row {row_number}, column {schema.name(x)!r}: unknown label {cell!r}"
                ) from None
        examples.append(tuple(values))
    return examples


def load_csv(path: str, schema: DomainSchema) -> list[Example]:
    # utf-8-sig drops the byte-order mark spreadsheets write before the header
    with open(path, encoding="utf-8-sig", newline="") as handle:
        return parse_csv(handle.read(), schema)


def write_csv(path: str, examples, schema: DomainSchema) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([v.name for v in schema.variables])
    for example in examples:
        writer.writerow(
            [schema.variables[x].values[v] for x, v in enumerate(example)]
        )
    _atomic_write(path, buffer.getvalue())


# -- session snapshots ----------------------------------------------------


def _node_to_doc(node: LatticeNode) -> dict:
    return {
        "key": node.key,
        "status": node.status.value,
        "expansion": node.expansion.value,
    }


def session_to_document(net: CombinedNetwork) -> dict:
    return {
        "format": SESSION_FORMAT,
        "version": SESSION_VERSION,
        "spec": json.loads(print_spec(net.schema, net.priors, net.config)),
        "scoring_model": net.scoring_model,
        "example_log": net.example_log.tolist(),
        "lattices": [
            {
                "x": lattice.x,
                "dead": sorted(lattice.dead),
                "nodes": [
                    _node_to_doc(lattice.nodes[key]) for key in sorted(lattice.nodes)
                ],
            }
            for lattice in net.lattices
        ],
    }


def session_from_document(doc: dict) -> CombinedNetwork:
    """Rebuild a session the way it was built: ``init`` of its spec, its
    stored sets in place of each lattice's root, then one ``observe_batch``
    of the whole log, which validates the log and counts every stored set.
    The lattice rules (``check_lattice``) are checked before any row is counted.

    Versions 1 to 7 also stored the number of log rows each node had
    absorbed, 1 to 6 each node's restricted-model fits, 1 to 5 each
    lattice's ``last_refine_n``, 1 to 4 each node's log prior, 1 to 3 its
    restricted-model scores, and 1 and 2 its counts and table score; they
    are ignored, so a session's priors agree with its spec and its
    statistics and scores with its log, and ``refine`` re-aims every
    lattice it visits whatever the file says.  A set an older file left
    behind the log is asleep, so counting it on the whole log changes no
    answer.
    """
    if not isinstance(doc, dict) or doc.get("format") != SESSION_FORMAT:
        raise SessionFormatError(f"missing format tag {SESSION_FORMAT!r}")
    version = doc.get("version")
    if version not in range(1, SESSION_VERSION + 1) or type(version) is not int:
        raise SessionFormatError(f"unsupported session version {version!r}")
    try:
        schema, priors, config = parse_spec(json.dumps(doc["spec"]))
        scoring_model = doc["scoring_model"]
        if scoring_model not in SCORING_MODELS:
            raise SessionFormatError(f"unknown scoring model {scoring_model!r}")
        if not isinstance(doc["example_log"], list):
            raise SessionFormatError("example log is not a list of rows")
        net = init(schema, priors, config)
        net.scoring_model = scoring_model
        for lattice_doc in doc["lattices"]:
            _lattice_from_doc(lattice_doc, version, net)
        if [d["x"] for d in doc["lattices"]] != list(range(len(schema))):
            raise SessionFormatError("lattices do not cover the schema variables")
        for lattice in net.lattices:  # on no rows: the stored sets are still empty
            try:
                check_lattice(lattice, 0)
            except LatticeStateError as err:
                raise SessionFormatError(f"lattice {schema.name(lattice.x)!r}: {err}") from None
        observe_batch(net, doc["example_log"])
        return net
    except SessionFormatError:
        raise
    except (KeyError, TypeError, ValueError) as err:
        raise SessionFormatError(f"malformed session document: {err}") from None


def _lattice_from_doc(doc: dict, version: int, net: CombinedNetwork) -> None:
    """Store the document's sets and dead keys, uncounted, in the network's
    lattice ``x`` in place of its fresh root.  The document's own faults are
    checked here, the lattice rules once every lattice is stored (``check_lattice``)."""
    schema = net.schema
    x = doc["x"]
    if type(x) is not int or not 0 <= x < len(schema):
        raise SessionFormatError(f"lattice x {x!r} names no variable of the {len(schema)}-variable schema")
    lattice = net.lattices[x]
    if version == 1:  # a dead parent set was a node with status "dead"
        stored = [d for d in doc["nodes"] if d["status"] != "dead"]
        dead = [d["key"] for d in doc["nodes"] if d["status"] == "dead"]
    else:
        stored, dead = doc["nodes"], doc["dead"]
    keys = [d["key"] for d in stored]
    where = f"lattice {schema.name(lattice.x)!r}"
    for key in keys + dead:
        if type(key) is not int:
            raise SessionFormatError(f"{where}: node key {key!r} is not an integer")
    if len(set(keys)) < len(keys) or len(set(dead)) < len(dead):
        raise SessionFormatError(f"{where}: a node key is repeated")
    lattice.nodes = {}  # the stored nodes replace the fresh root
    for d in stored:
        _node_from_doc(d, version, lattice, net)
    lattice.dead = set(dead)


def _node_from_doc(doc: dict, version: int, lattice: ParentLattice, net: CombinedNetwork) -> None:
    """Store the document's node, with no rows counted yet."""
    where = f"lattice {net.schema.name(lattice.x)!r}"
    try:
        status = NodeStatus(doc["status"])
        expansion = ExpansionFlag(doc["expansion"] if version > 4 else _expansion_from_flags(doc))
        node = insert_node(lattice, doc["key"])
    except (ValueError, LatticeStateError) as err:
        raise SessionFormatError(f"{where}: {err}") from None
    node.status, node.expansion = status, expansion


def _expansion_from_flags(doc: dict) -> str:
    """Versions 1-4 kept two flags; the engine never left an expanded node open."""
    if doc["open"] and doc["expanded"]:
        raise ValueError("a node is both open and expanded")
    return "expanded" if doc["expanded"] else "open" if doc["open"] else "closed"


def serialize_session(net: CombinedNetwork) -> str:
    return _dump(session_to_document(net))


def save_session(path: str, net: CombinedNetwork) -> None:
    _atomic_write(path, serialize_session(net))


def load_session(path: str) -> CombinedNetwork:
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        raise SessionFormatError(f"cannot read session {path!r}: {err}") from None
    return session_from_document(doc)


# -- concrete networks ----------------------------------------------------


def network_to_document(network: ConcreteNetwork) -> dict:
    schema = network.schema
    return {
        "format": NETWORK_FORMAT,
        "version": FORMAT_VERSION,
        "variables": [
            {"name": v.name, "values": list(v.values)} for v in schema.variables
        ],
        "parents": [
            [schema.name(p) for p in parents] for parents in network.parents
        ],
        "tables": [[list(row) for row in table] for table in network.tables],
    }


def network_from_document(doc: dict) -> ConcreteNetwork:
    if not isinstance(doc, dict) or doc.get("format") != NETWORK_FORMAT:
        raise SessionFormatError(f"missing format tag {NETWORK_FORMAT!r}")
    if doc.get("version") != FORMAT_VERSION or type(doc["version"]) is not int:
        raise SessionFormatError(f"unsupported network version {doc.get('version')!r}")
    schema = _parse_variables(doc.get("variables"), SessionFormatError)
    try:
        parents = tuple(
            tuple(schema.position(name) for name in names) for names in doc["parents"]
        )
        tables = tuple(np.array(t, dtype=float) for t in doc["tables"])
        return ConcreteNetwork(schema=schema, parents=parents, tables=tables)
    except (KeyError, TypeError, ValueError) as err:
        raise SessionFormatError(f"malformed network document: {err}") from None


def save_network(path: str, network: ConcreteNetwork) -> None:
    _atomic_write(path, _dump(network_to_document(network)))


def load_network(path: str) -> ConcreteNetwork:
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        raise SessionFormatError(f"cannot read network {path!r}: {err}") from None
    return network_from_document(doc)


def smoothed_to_document(smoothed) -> dict:
    schema = smoothed.schema
    return {
        "format": SMOOTHED_FORMAT,
        "version": FORMAT_VERSION,
        "seed": smoothed.seed,
        "variables": [
            {
                "name": schema.name(x),
                "leaf": [schema.name(p) for p in var.leaf],
                "mass": var.mass,
                "arc_probs": {schema.name(y): p for y, p in sorted(var.arc_probs.items())},
                "table": [list(row) for row in var.table],
            }
            for x, var in enumerate(smoothed.variables)
        ],
    }


def save_smoothed(path: str, smoothed) -> None:
    _atomic_write(path, _dump(smoothed_to_document(smoothed)))
