#!/usr/bin/env python3
"""Print every public item in crates/*/src that nothing calls.

An item is called when its name appears as a word in another .rs file under
crates/, src/, tests/, examples/ or benchmark/src, or in its own file's
production code (above `#[cfg(test)]`) outside its definition and its own
`impl` blocks. Comments, string literals and `pub use` lines do not count.
A file none of whose module-level items another file names is printed
whole. Names are matched as words, not resolved, so a name shared with a
called item reads as called. Run from the repository root:

    python3 scripts/uncalled-pub.py           # print every uncalled item
    python3 scripts/uncalled-pub.py --check   # exit 1 on any not in EXEMPT

Every printed item must belong to one of four exempt classes. Two of them
never print: names benchmark/ binds read as called already, and so do
items their own module's production code uses. The other two are named in
EXEMPT; `--check` prints the items outside it and exits 1 if there are any.
"""
import pathlib
import re
import sys

EXEMPT = {
    # The paper's equations, in core::theory and core::utility.
    "paper equations": {
        "pf_memoryless_separated", "pf_with_memory_eqn39", "estimator_error_variance",
        "pf_memoryless_eqn34", "pf_memoryless_integral", "pf_worst_case", "m_star_approx",
        "pce_for_target_approx", "sensitivity_mean", "sensitivity_std_dev",
        "invert_pce_impulsive", "utilization_loss_alpha",
    },
    # Reference implementations a test compares against.
    "references": {"bisect", "wald_ci", "dft_reference", "hosking", "hard_loss_reference"},
}

ROOTS = ["crates", "src", "tests", "examples", "benchmark/src"]
ITEM = re.compile(r"^(\s*)pub\s+(?:(?:const|unsafe|async)\s+)*"
                  r"(fn|struct|enum|trait|const|static|type)\s+([A-Za-z_]\w*)")
STRIP = [(r"'(?:\\.|[^\\'])'", "''"), (r'"(?:\\.|[^"\\])*"', '""'), (r"(^|\s)//.*$", "")]

def code_lines(path):
    """The file's lines with literals, comments and `pub use` lines blanked."""
    lines = path.read_text().splitlines()
    for pat, rep in STRIP:
        lines = [re.sub(pat, rep, ln) for ln in lines]
    return ["" if re.match(r"\s*pub\s+use\b", ln) else ln for ln in lines]

def impl_lines(lines, name):
    """Indices of the lines of every `impl ... name ... { ... }` block."""
    inside, depth, braced = set(), None, False
    for i, ln in enumerate(lines):
        if depth is None and re.match(rf"\s*impl\b.*\b{name}\b", ln):
            depth, braced = 0, False
        if depth is not None:
            inside.add(i)
            depth += ln.count("{") - ln.count("}")
            braced |= "{" in ln
            depth = None if braced and depth <= 0 else depth
    return inside

files = sorted(p for r in ROOTS if pathlib.Path(r).is_dir()
               for p in pathlib.Path(r).rglob("*.rs") if "target" not in p.parts)
text = {p: code_lines(p) for p in files}
words = {p: set(re.findall(r"[A-Za-z_]\w*", "\n".join(ls))) for p, ls in text.items()}

check = sys.argv[1:] == ["--check"]
exempt = set().union(*EXEMPT.values())
unexpected = 0
for path in (p for p in files if p.parts[0] == "crates" and p.parts[2] == "src"):
    lines = text[path]
    end = next((i for i, ln in enumerate(lines) if ln.strip() == "#[cfg(test)]"), len(lines))
    items = [(i, *m.groups()) for i, ln in enumerate(lines[:end]) if (m := ITEM.match(ln))]
    called = {n for *_, n in items if any(n in words[p] for p in files if p != path)}
    top = [n for _, indent, _, n in items if not indent]
    if top and not called.intersection(top):
        print(f"{path}: no module-level item is named by another file")
        unexpected += 1
        continue
    for i, _, kind, name in items:
        skip = {i} | impl_lines(lines[:end], name)
        if name not in called and not any(
                re.search(rf"\b{name}\b", ln) for j, ln in enumerate(lines[:end]) if j not in skip):
            if not (check and name in exempt):
                print(f"{path}:{i + 1}: {kind} {name}")
            unexpected += name not in exempt
sys.exit(1 if check and unexpected else 0)
