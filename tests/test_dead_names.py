"""No dead names: every function and class under ``src/`` is named
somewhere besides its own definition, and every attribute stored on
``self`` under ``src/`` is read somewhere.

A name that occurs exactly once across ``src/``, ``tests/``,
``benchmarks/`` and ``examples/`` — at its ``def`` or ``class`` — is code
nothing calls, and it goes.  Identifiers are counted as tokens of the
whole text, so a name used only in generated source, an f-string or a
``getattr`` string still counts as used.  Dunder methods are exempt
(Python calls them), and so are decorated classes: registry entries are
reached through their decorator, by name.

An attribute is state nothing consults when neither the product nor
what runs it (``src/``, ``benchmarks/``, ``examples/``) reads its name:
no attribute load (``x.name``; ``self.name += 1`` is a store), no
keyword argument ``name=`` and no identifier ``name`` inside a string
constant (generated code, ``getattr`` names, ``__slots__``).  A read as
``self.name`` is a read of one class's attribute: it keeps alive only
the stores of the class whose method makes it, of that class's
ancestors and of its descendants, so ``B`` reading its own ``x`` does
not keep an unrelated ``A.x`` alive.  Docstrings are not string
constants here: prose that names an attribute does not read it.  A
read in ``tests/`` does not count: a counter the runtime keeps on every
send or item for tests alone is a cost the product pays for nothing,
and a test can observe the same behaviour through what the product
emits.  Only :data:`ACCOUNTING` is exempt.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "benchmarks", "examples")
#: The trees whose reads keep a stored attribute alive.
READERS = ("src", "benchmarks", "examples")
#: Kept whoever reads them: the per-task and per-worker busy time and
#: the count of scheduled slices are the accounting a worker's busy
#: time decomposes into (task ``busy_us`` + slices x ``SCHEDULE_US`` +
#: ``steal_us``), which ``test_policy_invariants.py`` checks on every
#: policy and the operational-law identities of ROADMAP.md build on.
ACCOUNTING = ("busy_us", "tasks_executed")
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _docstrings(module):
    """The ``id`` of every docstring constant in ``module``."""
    found = set()
    for node in ast.walk(module):
        if isinstance(node, (ast.Module, *DEFINITIONS)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(
                first.value, ast.Constant
            ):
                found.add(id(first.value))
    return found


def _dead_names(root=ROOT):
    uses = Counter()
    for tree in TREES:
        for path in (root / tree).rglob("*.py"):
            uses.update(IDENTIFIER.findall(path.read_text(encoding="utf-8")))
    dead = []
    for path in sorted((root / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, DEFINITIONS) or uses[node.name] != 1:
                continue
            if isinstance(node, ast.ClassDef) and node.decorator_list:
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            dead.append(f"{path.relative_to(root)}:{node.lineno} {node.name}")
    return dead


class _AttributeUses(ast.NodeVisitor):
    """One module's attribute stores and reads, each ``self.name`` one
    under the class whose method holds it."""

    def __init__(self, uses, module, path):
        self.uses = uses
        self.docstrings = _docstrings(module)
        #: The module's path under ``src/``, or ``None``: its stores are
        #: not checked.
        self.path = path
        self.cls = None

    def visit_ClassDef(self, node):
        self.uses.bases.setdefault(node.name, set()).update(
            base.id if isinstance(base, ast.Name) else base.attr
            for base in node.bases
            if isinstance(base, (ast.Name, ast.Attribute))
        )
        outer, self.cls = self.cls, node.name
        self.generic_visit(node)
        self.cls = outer

    def visit_Attribute(self, node):
        on_self = isinstance(node.value, ast.Name) and node.value.id == "self"
        if isinstance(node.ctx, ast.Load):
            if on_self and self.cls is not None:
                self.uses.self_reads.setdefault(self.cls, set()).add(node.attr)
            else:
                self.uses.reads.add(node.attr)
        elif on_self and self.path is not None:
            key, where = (self.cls, node.attr), (self.path, node.lineno)
            self.uses.stores[key] = min(self.uses.stores.get(key, where), where)
        self.generic_visit(node)

    def visit_keyword(self, node):
        if node.arg:
            self.uses.reads.add(node.arg)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and id(node) not in self.docstrings:
            self.uses.reads.update(IDENTIFIER.findall(node.value))


class _Uses:
    def __init__(self):
        #: ``(class, name)`` → first ``(path, line)`` of a ``self.name``
        #: store under ``src/``; the class is ``None`` outside a class.
        self.stores = {}
        #: Names read other than as ``self.name`` inside a class: on
        #: another object, as a keyword, in a string.  Such a read may
        #: be of any class's attribute.
        self.reads = set(ACCOUNTING)
        #: Class name → the names its methods read as ``self.name``.
        self.self_reads = {}
        #: Class name → the names of its bases.
        self.bases = {}

    def _closure(self, cls, step):
        found, todo = {cls}, [cls]
        while todo:
            for other in step(todo.pop()):
                if other not in found:
                    found.add(other)
                    todo.append(other)
        return found

    def related(self, cls):
        """``cls``, its ancestors and its descendants: the classes whose
        methods may see ``cls``'s attributes on ``self``."""
        bases = self.bases
        ancestors = self._closure(cls, lambda c: bases.get(c, ()))
        descendants = self._closure(
            cls, lambda c: [sub for sub, of in bases.items() if c in of]
        )
        return ancestors | descendants

    def is_read(self, cls, name):
        return name in self.reads or any(
            name in self.self_reads.get(other, ())
            for other in self.related(cls)
        )


def _write_only_attributes(root=ROOT):
    """``path:line Class.name`` of the first ``self.name`` store under
    ``src/`` of every attribute that no tree in :data:`READERS` reads.
    A read as ``self.name`` counts only for the class whose method makes
    it, that class's ancestors and its descendants; any other read
    counts for every class with an attribute of that name."""
    uses = _Uses()
    for tree in READERS:
        for path in sorted((root / tree).rglob("*.py")):
            module = ast.parse(path.read_text(encoding="utf-8"))
            checked = str(path.relative_to(root)) if tree == "src" else None
            _AttributeUses(uses, module, checked).visit(module)
    return sorted(
        f"{path}:{line} " + (name if cls is None else f"{cls}.{name}")
        for (cls, name), (path, line) in uses.stores.items()
        if not uses.is_read(cls, name)
    )


def test_every_function_and_class_under_src_is_referenced():
    dead = _dead_names()
    assert not dead, "defined and referenced nowhere: " + "; ".join(dead)


def test_every_attribute_stored_under_src_is_read():
    unread = _write_only_attributes()
    assert not unread, "stored and read nowhere: " + "; ".join(unread)


def _tree(tmp_path, src, tests=""):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text(src, encoding="utf-8")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(tests, encoding="utf-8")
    return tmp_path


def test_a_name_defined_once_is_flagged_with_its_line(tmp_path):
    root = _tree(
        tmp_path,
        "def used():\n    pass\n\n\n"
        "def orphan():\n    pass\n\n\n"
        "class Lonely:\n    def forgotten(self):\n        return used()\n",
    )
    assert _dead_names(root) == [
        "src/mod.py:5 orphan",
        "src/mod.py:9 Lonely",
        "src/mod.py:10 forgotten",
    ]


def test_a_use_in_another_tree_or_a_string_counts(tmp_path):
    root = _tree(
        tmp_path,
        "def by_test():\n    pass\n\n\n"
        "def by_getattr():\n    pass\n\n\n"
        "HOOK = getattr(object(), 'by_getattr', None)\n",
        tests="from mod import by_test\n",
    )
    assert _dead_names(root) == []


def test_decorated_classes_and_dunders_are_exempt(tmp_path):
    root = _tree(
        tmp_path,
        "def register(cls):\n    return cls\n\n\n"
        "@register\n"
        "class Entry:\n    def __repr__(self):\n        return 'entry'\n\n\n"
        "@staticmethod\n"
        "def decorated_function():\n    pass\n",
    )
    # Only classes are reached through their decorator; a decorated
    # function still needs a caller.
    assert _dead_names(root) == ["src/mod.py:12 decorated_function"]


def test_an_attribute_only_stored_is_flagged_at_its_first_store(tmp_path):
    root = _tree(
        tmp_path,
        "class Counter:\n"
        "    def __init__(self):\n"
        "        self.hits = 0\n"
        "        self.total = 0\n\n"
        "    def bump(self):\n"
        "        self.hits += 1\n"
        "        self.total = self.total + 1\n",
    )
    # An augmented assignment stores; only ``total`` is ever loaded.
    assert _write_only_attributes(root) == ["src/mod.py:3 Counter.hits"]


def test_a_load_keyword_or_string_in_the_product_counts_as_a_read(tmp_path):
    root = _tree(
        tmp_path,
        "class Holder:\n"
        "    __slots__ = ('slotted',)\n\n"
        "    def __init__(self):\n"
        "        self.slotted = 1\n"
        "        self.by_keyword = 2\n"
        "        self.by_getattr = 3\n"
        "        self.by_example = 4\n"
        "        self.by_source = 5\n\n"
        "    def copy(self):\n"
        "        return dict(by_keyword=getattr(self, 'by_getattr'))\n\n\n"
        "SOURCE = 'def peek(h):\\n    return h.by_source\\n'\n",
    )
    (root / "examples").mkdir()
    (root / "examples" / "demo.py").write_text(
        "def show(holder):\n    print(holder.by_example)\n", encoding="utf-8"
    )
    assert _write_only_attributes(root) == []


def test_an_attribute_only_a_test_reads_is_flagged(tmp_path):
    root = _tree(
        tmp_path,
        "class Socket:\n"
        "    def __init__(self):\n"
        "        self.bytes_sent = 0\n"
        "        self.busy_us = 0.0\n\n"
        "    def send(self, data):\n"
        "        self.bytes_sent += len(data)\n"
        "        self.busy_us += 1.0\n",
        tests=(
            "def test_it(socket):\n"
            "    assert socket.bytes_sent == 5\n"
            "    assert socket.busy_us == 1.0\n"
        ),
    )
    # A test's read keeps nothing alive; only the named accounting is
    # exempt.
    assert _write_only_attributes(root) == ["src/mod.py:3 Socket.bytes_sent"]


def test_a_docstring_naming_an_attribute_does_not_read_it(tmp_path):
    root = _tree(
        tmp_path,
        '"""Counts ``pending`` work."""\n\n\n'
        "class Queue:\n"
        '    """Keeps ``pending`` and ``closed``."""\n\n'
        "    def __init__(self):\n"
        '        """Sets ``pending``."""\n'
        "        self.pending = 0\n"
        "        self.closed = False\n",
        tests='"""Checks ``closed``."""\n',
    )
    assert _write_only_attributes(root) == [
        "src/mod.py:10 Queue.closed",
        "src/mod.py:9 Queue.pending",
    ]


def test_a_self_read_counts_only_for_its_own_class(tmp_path):
    root = _tree(
        tmp_path,
        "class A:\n"
        "    def __init__(self):\n"
        "        self.x = 1\n\n\n"
        "class B:\n"
        "    def __init__(self):\n"
        "        self.x = 2\n\n"
        "    def get(self):\n"
        "        return self.x\n",
    )
    assert _write_only_attributes(root) == ["src/mod.py:3 A.x"]


def test_a_self_read_counts_across_a_class_hierarchy(tmp_path):
    root = _tree(
        tmp_path,
        "class Base:\n"
        "    def __init__(self):\n"
        "        self.chunks = ()\n\n"
        "    def ready(self):\n"
        "        return bool(self.hint)\n\n\n"
        "class Reader(Base):\n"
        "    def __init__(self):\n"
        "        super().__init__()\n"
        "        self.hint = 1\n\n"
        "    def step(self):\n"
        "        return self.chunks, self.note\n\n\n"
        "class Sibling(Base):\n"
        "    def __init__(self):\n"
        "        self.note = None\n\n\n"
        "class Other:\n"
        "    def __init__(self):\n"
        "        self.chunks = self.hint = None\n",
    )
    # The subclass reads what its base stores, and the base reads what
    # its subclass stores; a sibling or an unrelated class with the same
    # names does not share the reads.
    assert _write_only_attributes(root) == [
        "src/mod.py:20 Sibling.note",
        "src/mod.py:25 Other.chunks",
        "src/mod.py:25 Other.hint",
    ]


def test_a_read_on_another_object_counts_for_every_class(tmp_path):
    root = _tree(
        tmp_path,
        "class A:\n"
        "    def __init__(self):\n"
        "        self.x = 1\n\n\n"
        "def show(a):\n"
        "    return a.x\n",
    )
    assert _write_only_attributes(root) == []


def test_a_store_on_another_object_is_not_checked(tmp_path):
    root = _tree(
        tmp_path,
        "def stamp(task):\n    task.stamped = True\n",
    )
    assert _write_only_attributes(root) == []
