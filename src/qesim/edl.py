"""EDL: a small line-oriented language for describing experiments.

The parser is total: any input produces a (possibly empty) document plus a
list of diagnostics with line/column positions; it never raises on malformed
text.  ``compile_document`` turns a clean parse into a :class:`Template`
holding a runnable :class:`~qesim.circuit.Circuit`, again reporting problems
as diagnostics.  ``format_document`` renders the canonical form, which is
idempotent: formatting already-canonical text is the identity.

Grammar (case-sensitive keywords, ``#`` starts a comment)::

    EXPERIMENT name
    DOF name : label label ...
    PARAM name = number
    SOURCE amp |dof=label, ...> ; amp |...> ; ...
    STAGE id : keyword args...          [when dof=label]
    CHOICE id : alt {
        <stages>
    } | alt {
        <stages>
    }
    DETECT name : screen dof                               [delay=NS]
    DETECT name : dof basis=name, dof basis=name, ...      [delay=NS]

Amplitudes are complex literals of the form ``a+bi``; the source is
normalized by the compiler.  Angle arguments are numbers in degrees or the
name of a ``PARAM``.  A ``PARAM`` declares a parameter with its default
value in radians; an angle naming it receives a bound value as it is, with no
conversion.  ``compile_document(doc, params)`` binds other values, and
``Template.rows`` builds the stages naming one PARAM for many.  ``delay=NS``
sets the detector's ``time_offset``: its events are logged NS nanoseconds
after the shot.  ``ELEMENTS`` lists the element keywords with their
arguments, ``elements.BASIS_NAMES`` the detector bases.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass, field, replace

import numpy as np

from . import elements as el
from .circuit import Choice, Circuit, DetectorSpec
from .qstate import Dof, StateVector, ValidationError

ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class ParseDiagnostic:
    line: int  # 1-based
    col: int  # 1-based
    message: str
    severity: str = ERROR

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.severity}: {self.message}"


# -- AST ------------------------------------------------------------------------


@dataclass(frozen=True)
class SourceTerm:
    amplitude: complex
    kets: tuple[tuple[str, str], ...]  # (dof, label) pairs
    line: int = 0


@dataclass(frozen=True)
class ElementStage:
    stage_id: str
    keyword: str
    args: tuple[str, ...]
    when: tuple[str, str] | None = None
    line: int = 0


@dataclass(frozen=True)
class ChoiceNode:
    name: str
    alternatives: tuple[tuple[str, tuple], ...]  # (alt name, stage tuple)
    line: int = 0


@dataclass(frozen=True)
class DetectNode:
    name: str
    screen_of: str | None
    measured: tuple[tuple[str, str], ...]  # (dof, basis) pairs
    delay: float = 0.0  # ns
    line: int = 0


@dataclass(frozen=True)
class Document:
    name: str
    dofs: tuple[tuple[str, tuple[str, ...]], ...]
    source: tuple[SourceTerm, ...]
    stages: tuple  # ElementStage | ChoiceNode | DetectNode
    params: tuple[tuple[str, float], ...] = ()  # (name, default in radians)


@dataclass
class ParseResult:
    document: Document | None
    diagnostics: list[ParseDiagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.document is not None and not any(
            d.severity == ERROR for d in self.diagnostics
        )


@dataclass(frozen=True)
class Template:
    """A compiled document (or None and the diagnostics), and the stages of it
    that name a PARAM, which ``rows`` builds for many values at once."""

    circuit: Circuit | None
    diagnostics: list[ParseDiagnostic] = field(default_factory=list)
    doc: Document | None = None
    params: dict[str, float] = field(default_factory=dict)  # as bound in ``circuit``
    lazy: tuple[tuple[ElementStage, el.ElementOp], ...] = ()  # the stages naming a PARAM

    @property
    def ok(self) -> bool:
        return self.circuit is not None and not any(
            d.severity == ERROR for d in self.diagnostics
        )

    def rows(self, name: str, values) -> dict[int, np.ndarray]:
        """For each element of ``circuit`` whose angle names PARAM ``name``,
        keyed by its id, the stack of the matrices ``compile_document`` builds
        it with at each of ``values`` (radians), to the bit: the rows of
        ``circuit.evolve_rows`` and ``circuit.joint_probs``.  The first value a
        compile rejects raises what ``build_template`` of it raises."""
        if not self.ok:
            raise _failure("document", self.diagnostics)
        if name not in self.params:
            build_template(self.doc, {**self.params, name: 0.0})  # raises
        values, dofs = np.array(values, dtype=float), {d.name: d for d in self.circuit.dofs}
        stacks, suspect = {}, ~np.isfinite(values)
        angles = np.where(suspect, 0.0, values)  # a compile rejects each value not finite, below
        for s, op in self.lazy:
            kinds = ELEMENTS[s.keyword][1]
            if (ANGLE, name) in zip(kinds, s.args):
                # the stage compiled: its dofs and labels resolve as written
                args = [dofs[t] if k == DOF else angles if k == ANGLE else t for k, t in zip(kinds, s.args)]
                stacks[id(op)] = STACKS[s.keyword](*args)
                suspect |= el.rejected(op.kind, stacks[id(op)])
        # a matrix ElementOp rejects, or an angle that is not finite
        for v in values[suspect] if stacks else ():
            build_template(self.doc, {**self.params, name: v})
        return stacks


# -- lexical helpers ------------------------------------------------------------

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_+\-]*$")
_NUM = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(rf"^({_NUM})(?:([+-](?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)i)?$|^({_NUM})i$")


def parse_complex(text: str) -> complex | None:
    """Parse an ``a+bi`` literal; None if malformed or not finite."""
    m = _COMPLEX_RE.match(text.strip())
    if not m:
        return None
    if m.group(3) is not None:
        z = complex(0.0, float(m.group(3)))
    else:
        im_part = float(m.group(2)) if m.group(2) is not None else 0.0
        z = complex(float(m.group(1)), im_part)
    return z if cmath.isfinite(z) else None


def format_complex(z: complex) -> str:
    """Canonical ``a+bi`` rendering (both parts always present)."""
    im = z.imag
    sign = "-" if im < 0 else "+"
    return f"{format_number(z.real)}{sign}{format_number(abs(im))}i"


def _number(text: str) -> float | None:
    """A finite decimal literal; None otherwise."""
    if re.fullmatch(_NUM, text.strip()) and math.isfinite(float(text)):
        return float(text)
    return None


def format_number(x: float) -> str:
    """Shortest decimal that round-trips to exactly ``x``."""
    if x == 0:
        x = 0.0  # normalize -0.0
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


# -- parser ---------------------------------------------------------------------

DOF, LABEL, ANGLE = "dof", "label", "angle"

#: keyword -> (element constructor, the kinds of its arguments in order,
#: whether it accepts a ``when dof=label`` condition); each kind names the
#: compiler method that resolves an argument of that kind
ELEMENTS = {
    "split": (el.splitter, (DOF,), False),
    "bs": (el.beam_splitter, (DOF, LABEL, LABEL), False),
    "phase": (el.phase_shifter, (DOF, LABEL, ANGLE), False),
    "analyzer": (el.analyzer, (DOF, DOF), False),
    "analyzer_inv": (el.inverse_analyzer, (DOF, DOF), False),
    "sg": (el.stern_gerlach, (DOF, DOF), False),
    "sg_inv": (el.inverse_stern_gerlach, (DOF, DOF), False),
    "qwp": (el.quarter_wave_plate, (DOF, ANGLE), True),
    "pol": (el.linear_polarizer, (DOF, ANGLE), True),
    "block": (el.blocker, (DOF, LABEL), False),
    "recombine": (el.recombiner, (DOF, LABEL), False),
}

#: keyword -> the array form of its constructor, over a vector of angles
STACKS = {
    "phase": el.phase_shifter_stack, "qwp": el.quarter_wave_plate_stack, "pol": el.linear_polarizer_stack,
}


class _Parser:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.diags: list[ParseDiagnostic] = []
        self.experiment: str | None = None
        self.dofs: list[tuple[str, tuple[str, ...]]] = []
        self.params: list[tuple[str, float]] = []
        self.source: list[SourceTerm] = []
        self.top: list = []
        # stack of (choice name, alts list, current stage list, line)
        self.choice_stack: list[dict] = []

    def error(self, line: int, col: int, msg: str) -> None:
        self.diags.append(ParseDiagnostic(line, col, msg, ERROR))

    def warn(self, line: int, col: int, msg: str) -> None:
        self.diags.append(ParseDiagnostic(line, col, msg, WARNING))

    def sink(self) -> list:
        return self.choice_stack[-1]["stages"] if self.choice_stack else self.top

    def run(self) -> ParseResult:
        for i, raw in enumerate(self.lines, start=1):
            line = raw.split("#", 1)[0].rstrip()
            if not line.strip():
                continue
            self.dispatch(i, line.strip())
        while self.choice_stack:
            frame = self.choice_stack.pop()
            self.error(frame["line"], 1, f"choice {frame['name']!r} is never closed")
        if self.experiment is None:
            self.error(max(len(self.lines), 1), 1, "missing EXPERIMENT header")
            return ParseResult(None, self.diags)
        doc = Document(
            name=self.experiment,
            dofs=tuple(self.dofs),
            source=tuple(self.source),
            stages=tuple(self.top),
            params=tuple(self.params),
        )
        return ParseResult(doc, self.diags)

    def dispatch(self, n: int, line: str) -> None:
        if line.startswith("EXPERIMENT"):
            self.parse_experiment(n, line)
        elif line.startswith("DOF"):
            self.parse_dof(n, line)
        elif line.startswith("PARAM"):
            self.parse_param(n, line)
        elif line.startswith("SOURCE"):
            self.parse_source(n, line)
        elif line.startswith("STAGE"):
            self.parse_stage(n, line)
        elif line.startswith("CHOICE"):
            self.parse_choice_open(n, line)
        elif line.startswith("DETECT"):
            self.parse_detect(n, line)
        elif line.startswith("}"):
            self.parse_choice_delim(n, line)
        else:
            self.error(n, 1, f"unrecognized line: {line.split()[0]!r}")

    # -- individual line forms --------------------------------------------------

    def parse_experiment(self, n: int, line: str) -> None:
        parts = line.split()
        if len(parts) != 2 or not _NAME_RE.match(parts[1]):
            self.error(n, 1, "expected: EXPERIMENT name")
            return
        if self.experiment is not None:
            self.warn(n, 1, "duplicate EXPERIMENT header ignored")
            return
        self.experiment = parts[1]

    def parse_dof(self, n: int, line: str) -> None:
        m = re.match(r"^DOF\s+(\S+)\s*:\s*(.+)$", line)
        if not m:
            self.error(n, 1, "expected: DOF name : label label ...")
            return
        name, rest = m.group(1), m.group(2)
        if not _NAME_RE.match(name):
            self.error(n, line.index(name) + 1, f"bad dof name {name!r}")
            return
        labels = rest.split()
        bad = [l for l in labels if not _NAME_RE.match(l)]
        if bad:
            self.error(n, 1, f"bad label(s) {bad} for dof {name!r}")
            return
        if len(labels) < 2:
            self.error(n, 1, f"dof {name!r} needs at least 2 labels")
            return
        if len(set(labels)) != len(labels):
            self.error(n, 1, f"dof {name!r} has duplicate labels")
            return
        if any(name == d for d, _ in self.dofs):
            self.error(n, 1, f"dof {name!r} declared twice")
            return
        self.dofs.append((name, tuple(labels)))

    def parse_param(self, n: int, line: str) -> None:
        m = re.match(r"^PARAM\s+(\S+)\s*=\s*(\S+)$", line)
        if not m or not _NAME_RE.match(m.group(1)):
            self.error(n, 1, "expected: PARAM name = number")
            return
        name, value = m.group(1), _number(m.group(2))
        if value is None:
            self.error(n, 1, f"bad value {m.group(2)!r} for PARAM {name!r}")
            return
        if any(name == p for p, _ in self.params):
            self.error(n, 1, f"PARAM {name!r} declared twice")
            return
        self.params.append((name, value))

    def parse_ket(self, n: int, text: str) -> tuple[tuple[str, str], ...] | None:
        m = re.match(r"^\|(.*)>$", text.strip())
        if not m:
            self.error(n, 1, f"malformed ket {text.strip()!r} (expected |dof=label, ...>)")
            return None
        pairs = []
        for item in m.group(1).split(","):
            item = item.strip()
            if "=" not in item:
                self.error(n, 1, f"ket entry {item!r} is not dof=label")
                return None
            dof, label = (p.strip() for p in item.split("=", 1))
            if not (_NAME_RE.match(dof) and _NAME_RE.match(label)):
                self.error(n, 1, f"bad ket entry {item!r}")
                return None
            pairs.append((dof, label))
        return tuple(pairs)

    def parse_source(self, n: int, line: str) -> None:
        if self.source:
            self.error(n, 1, "duplicate SOURCE line")
            return
        body = line[len("SOURCE"):].strip()
        if not body:
            self.error(n, 1, "SOURCE needs at least one term")
            return
        for term in body.split(";"):
            term = term.strip()
            m = re.match(r"^(\S+)\s+(\|.*>)$", term)
            if not m:
                self.error(n, 1, f"malformed source term {term!r} (expected amp |...>)")
                continue
            amp = parse_complex(m.group(1))
            if amp is None:
                self.error(n, 1, f"bad amplitude literal {m.group(1)!r}")
                continue
            kets = self.parse_ket(n, m.group(2))
            if kets is None:
                continue
            self.source.append(SourceTerm(amp, kets, line=n))

    def split_when(self, n: int, rest: str) -> tuple[str, tuple[str, str] | None]:
        m = re.search(r"\bwhen\s+(\S+)\s*$", rest)
        if not m:
            return rest, None
        clause = m.group(1)
        if "=" not in clause:
            self.error(n, 1, f"bad when clause {clause!r} (expected dof=label)")
            return rest[: m.start()].rstrip(), None
        dof, label = clause.split("=", 1)
        return rest[: m.start()].rstrip(), (dof, label)

    def parse_stage(self, n: int, line: str) -> None:
        m = re.match(r"^STAGE\s+(\S+)\s*:\s*(.+)$", line)
        if not m:
            self.error(n, 1, "expected: STAGE id : keyword args...")
            return
        stage_id, rest = m.group(1), m.group(2)
        if not _NAME_RE.match(stage_id):
            self.error(n, 1, f"bad stage id {stage_id!r}")
            return
        rest, when = self.split_when(n, rest)
        parts = rest.split()
        if not parts:
            self.error(n, 1, "STAGE needs an element keyword")
            return
        kw, args = parts[0], tuple(parts[1:])
        if kw not in ELEMENTS:
            self.error(n, 1, f"unknown element keyword {kw!r}")
            return
        _, kinds, conditionable = ELEMENTS[kw]
        if len(args) != len(kinds):
            self.error(n, 1, f"element {kw!r} takes {len(kinds)} argument(s), got {len(args)}")
            return
        if when is not None and not conditionable:
            self.error(n, 1, f"element {kw!r} does not accept a when clause")
            return
        self.sink().append(ElementStage(stage_id, kw, args, when, line=n))

    def parse_detect(self, n: int, line: str) -> None:
        m = re.match(r"^DETECT\s+(\S+)\s*:\s*(.+)$", line)
        if not m:
            self.error(n, 1, "expected: DETECT name : screen dof | dof basis=name, ...")
            return
        name, rest = m.group(1), m.group(2)
        if not _NAME_RE.match(name):
            self.error(n, 1, f"bad detector name {name!r}")
            return
        delay = 0.0
        dm = re.search(r"(?:^|\s)delay=(\S*)$", rest)
        if dm:
            delay = _number(dm.group(1))
            if delay is None:
                self.error(n, 1, f"bad delay {dm.group(1)!r} (expected delay=NS)")
                return
            rest = rest[: dm.start()].rstrip()
        parts = rest.split()
        if parts and parts[0] == "screen":
            if len(parts) != 2:
                self.error(n, 1, "expected: DETECT name : screen dof")
                return
            self.sink().append(DetectNode(name, parts[1], (), delay, line=n))
            return
        measured = []
        for item in rest.split(","):
            mm = re.match(r"^\s*(\S+)\s+basis=(\S+)\s*$", item)
            if not mm:
                self.error(n, 1, f"bad measurement {item.strip()!r} (expected dof basis=name)")
                return
            measured.append((mm.group(1), mm.group(2)))
        self.sink().append(DetectNode(name, None, tuple(measured), delay, line=n))

    def parse_choice_open(self, n: int, line: str) -> None:
        m = re.match(r"^CHOICE\s+(\S+)\s*:\s*(\S+)\s*\{$", line)
        if not m:
            self.error(n, 1, "expected: CHOICE id : alt {")
            return
        name, first_alt = m.group(1), m.group(2)
        if not (_NAME_RE.match(name) and _NAME_RE.match(first_alt)):
            self.error(n, 1, f"bad choice or alternative name in {line!r}")
            return
        self.choice_stack.append(
            {"name": name, "alts": [], "alt_name": first_alt, "stages": [], "line": n}
        )

    def parse_choice_delim(self, n: int, line: str) -> None:
        if not self.choice_stack:
            self.error(n, 1, "unmatched '}'")
            return
        frame = self.choice_stack[-1]
        frame["alts"].append((frame["alt_name"], tuple(frame["stages"])))
        if line == "}":
            self.choice_stack.pop()
            names = [a for a, _ in frame["alts"]]
            if len(set(names)) != len(names):
                self.error(n, 1, f"choice {frame['name']!r} repeats an alternative name")
                return
            self.sink().append(
                ChoiceNode(frame["name"], tuple(frame["alts"]), line=frame["line"])
            )
            return
        m = re.match(r"^\}\s*\|\s*(\S+)\s*\{$", line)
        if not m or not _NAME_RE.match(m.group(1)):
            self.error(n, 1, "expected '}' or '} | alt {'")
            self.choice_stack.pop()
            return
        frame["alt_name"] = m.group(1)
        frame["stages"] = []


def parse(text: str) -> ParseResult:
    """Parse EDL text; always returns, collecting diagnostics."""
    return _Parser(text).run()


# -- compiler -------------------------------------------------------------------


class _Compiler:
    def __init__(self, doc: Document, params: dict[str, float] | None):
        self.doc = doc
        self.diags: list[ParseDiagnostic] = []
        self.dofs: dict[str, Dof] = {}
        self.lazy: list[tuple[ElementStage, el.ElementOp]] = []
        self.choices: set[str] = set()
        self.params = dict(doc.params)
        for name, value in (params or {}).items():
            if name not in self.params:
                declared = ", ".join(n for n, _ in doc.params) or "none"
                self.error(1, f"undeclared PARAM {name!r} (declared: {declared})")
            self.params[name] = float(value)

    def error(self, line: int, msg: str) -> None:
        self.diags.append(ParseDiagnostic(line, 1, msg, ERROR))

    def dof(self, name: str, line: int) -> Dof | None:
        d = self.dofs.get(name)
        if d is None:
            self.error(line, f"unknown dof {name!r}")
        return d

    def run(self) -> Template:
        for name, labels in self.doc.dofs:
            try:
                self.dofs[name] = Dof(name, labels)
            except ValidationError as e:
                self.error(1, str(e))
        if not self.dofs:
            self.error(1, "document declares no dofs")
            return Template(None, self.diags)

        source = self.build_source()
        stages = self.build_stages(self.doc.stages)
        if source is None or any(d.severity == ERROR for d in self.diags):
            return Template(None, self.diags)
        try:
            circuit = Circuit(tuple(self.dofs.values()), source, tuple(stages))
        except (ValidationError, ValueError) as e:
            self.error(1, f"circuit assembly failed: {e}")
            return Template(None, self.diags)
        return Template(circuit, self.diags, self.doc, self.params, tuple(self.lazy))

    def build_source(self) -> StateVector | None:
        if not self.doc.source:
            self.error(1, "document has no SOURCE")
            return None
        order = list(self.dofs)
        mapping: dict[tuple[str, ...], complex] = {}
        ok = True
        for term in self.doc.source:
            given = dict(term.kets)
            if len(given) != len(term.kets):
                self.error(term.line, "source ket repeats a dof")
                ok = False
                continue
            extra = set(given) - set(order)
            missing = set(order) - set(given)
            if extra or missing:
                self.error(
                    term.line,
                    f"source ket must name every dof exactly once"
                    f" (missing {sorted(missing)}, unknown {sorted(extra)})",
                )
                ok = False
                continue
            labels = []
            for dn in order:
                d = self.dofs[dn]
                if given[dn] not in d.labels:
                    self.error(term.line, f"dof {dn!r} has no label {given[dn]!r}")
                    ok = False
                    break
                labels.append(given[dn])
            else:
                key = tuple(labels)
                mapping[key] = mapping.get(key, 0.0) + term.amplitude
        if not ok:
            return None
        try:
            return StateVector.from_amplitudes(tuple(self.dofs.values()), mapping)
        except ValidationError as e:
            self.error(self.doc.source[0].line, f"bad source: {e}")
            return None

    def build_stages(self, nodes) -> list:
        out = []
        for node in nodes:
            if isinstance(node, ElementStage):
                op = self.build_element(node)
                if op is not None and not self.params.keys().isdisjoint(node.args):
                    self.lazy.append((node, op))
                out.append(op)
            elif isinstance(node, ChoiceNode):
                if node.name in self.choices:
                    self.error(node.line, f"choice name {node.name!r} is used twice")
                self.choices.add(node.name)
                alts = {
                    alt: tuple(self.build_stages(stages))
                    for alt, stages in node.alternatives
                }
                try:
                    out.append(Choice(node.name, alts))
                except ValidationError as e:
                    self.error(node.line, str(e))
            elif isinstance(node, DetectNode):
                out.append(self.build_detector(node))
        return [s for s in out if s is not None]

    def build_detector(self, node: DetectNode) -> DetectorSpec | None:
        if node.screen_of is not None:
            d = self.dof(node.screen_of, node.line)
            if d is None:
                return None
            if d.dim != 2:
                self.error(node.line, f"screen dof {d.name!r} must have 2 labels")
                return None
            return DetectorSpec(node.name, screen_of=node.screen_of, time_offset=node.delay)
        measured = []
        for dn, basis in node.measured:
            d = self.dof(dn, node.line)
            if d is None:
                return None
            if basis not in el.BASIS_NAMES:
                self.error(node.line, f"unknown basis {basis!r}")
                return None
            measured.append((dn, basis))
        return DetectorSpec(node.name, measured=tuple(measured), time_offset=node.delay)

    def label(self, text: str, line: int) -> str:
        """A label as written; the element constructor checks it."""
        return text

    def angle(self, text: str, line: int) -> float | None:
        """Radians: a PARAM's value as bound, or a literal in degrees."""
        if text in self.params:
            return self.params[text]
        v = _number(text)
        if v is None:
            self.error(line, f"bad angle {text!r} (degrees or a declared PARAM)")
            return None
        return math.radians(v)

    def build_element(self, node: ElementStage) -> el.ElementOp | None:
        line = node.line
        make, kinds, _ = ELEMENTS[node.keyword]
        errors = len(self.diags)
        if node.when is not None:
            cd = self.dof(node.when[0], line)
            if cd is not None and node.when[1] not in cd.labels:
                self.error(line, f"dof {cd.name!r} has no label {node.when[1]!r}")
        # resolve every argument, so that each bad one is reported
        values = [getattr(self, kind)(text, line) for kind, text in zip(kinds, node.args)]
        if len(self.diags) > errors:
            return None
        kwargs = {} if node.when is None else {"condition": node.when}
        try:
            return make(*values, **kwargs)
        except ValidationError as e:
            self.error(line, f"stage {node.stage_id!r}: {e}")
            return None


def compile_document(doc: Document, params: dict[str, float] | None = None) -> Template:
    """Compile ``doc`` with ``params`` (radians) bound to its declared PARAMs;
    an undeclared name is an error."""
    return _Compiler(doc, params).run()


def compile_text(text: str) -> Template:
    """Parse and compile in one step; diagnostics from both phases."""
    parsed = parse(text)
    if parsed.document is None or not parsed.ok:
        return Template(None, parsed.diagnostics)
    result = compile_document(parsed.document)
    return replace(result, diagnostics=parsed.diagnostics + result.diagnostics)


def _failure(what: str, diagnostics: list[ParseDiagnostic]) -> ValidationError:
    msgs = "\n".join(str(d) for d in diagnostics)
    return ValidationError(f"cannot compile {what}:\n{msgs}")


def load_document(path: str) -> Document:
    """Parse a UTF-8 file, raising ValidationError with all diagnostics on failure."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        parsed = parse(data.decode("utf-8"))
    except UnicodeDecodeError as e:
        raise ValidationError(f"cannot read {path}: byte {e.start} is not UTF-8") from None
    if not parsed.ok:
        raise _failure(path, parsed.diagnostics)
    return parsed.document


def build_template(doc: Document, params: dict[str, float] | None = None) -> Template:
    """``compile_document`` of ``doc`` with ``params`` bound, each other PARAM
    at its default; ValidationError on failure."""
    template = compile_document(doc, params)
    if not template.ok:
        raise _failure(f"experiment {doc.name!r}", template.diagnostics)
    return template


# -- formatter ------------------------------------------------------------------


def _format_stage(node, indent: str, lines: list[str]) -> None:
    if isinstance(node, ElementStage):
        args = []
        for kind, a in zip(ELEMENTS[node.keyword][1], node.args):
            num = _number(a) if kind == ANGLE else None
            # canonicalize numeric angles, keep names verbatim
            args.append(a if num is None else format_number(num))
        text = f"{indent}STAGE {node.stage_id} : {node.keyword} {' '.join(args)}"
        if node.when is not None:
            text += f" when {node.when[0]}={node.when[1]}"
        lines.append(text)
    elif isinstance(node, ChoiceNode):
        for i, (alt, stages) in enumerate(node.alternatives):
            lines.append(
                f"{indent}CHOICE {node.name} : {alt} {{" if i == 0 else f"{indent}}} | {alt} {{"
            )
            for s in stages:
                _format_stage(s, indent + "    ", lines)
        lines.append(f"{indent}}}")
    elif isinstance(node, DetectNode):
        if node.screen_of is not None:
            lines.append(f"{indent}DETECT {node.name} : screen {node.screen_of}")
        else:
            body = ", ".join(f"{d} basis={b}" for d, b in node.measured)
            lines.append(f"{indent}DETECT {node.name} : {body}")
        if node.delay:
            lines[-1] += f" delay={format_number(node.delay)}"


def format_document(doc: Document) -> str:
    lines = [f"EXPERIMENT {doc.name}", ""]
    for name, labels in doc.dofs:
        lines.append(f"DOF {name} : {' '.join(labels)}")
    for name, value in doc.params:
        lines.append(f"PARAM {name} = {format_number(value)}")
    lines.append("")
    terms = " ; ".join(
        f"{format_complex(t.amplitude)} "
        + "|" + ", ".join(f"{d}={l}" for d, l in t.kets) + ">"
        for t in doc.source
    )
    lines.append(f"SOURCE {terms}")
    lines.append("")
    for node in doc.stages:
        _format_stage(node, "", lines)
    return "\n".join(lines) + "\n"


def format_text(text: str) -> str:
    """Canonical formatting; raises ValidationError if the text does not parse."""
    parsed = parse(text)
    if parsed.document is None or not parsed.ok:
        msgs = "\n".join(str(d) for d in parsed.diagnostics)
        raise ValidationError(f"cannot format:\n{msgs}")
    return format_document(parsed.document)
