#!/usr/bin/env python3
"""Duplicate scan for ROADMAP aim 2 ("one implementation per mechanism").

Every non-test Go file outside benchmark/ loses its comments, blank
lines and imports; every window of 8 consecutive lines is normalised —
whitespace dropped, strings and numbers replaced by a placeholder,
identifiers renamed by order of first appearance in the window, so a
copy with its variables and types renamed still matches but code that
merely has the same shape does not — and hashed. Two files share a
window when the same hash occurs in both. Prints the file pairs that
share the most windows (ten, or the count given as the second
argument). Print-only: it gates nothing, it gives a re-anchor a number
to quote.
"""
import collections
import hashlib
import itertools
import os
import re
import sys

WINDOW = 8
KEYWORDS = set("""break case chan const continue default defer else fallthrough
for func go goto if import interface map package range return select struct
switch type var nil true false""".split())
TOKEN = re.compile(r'"(?:\\.|[^"\\])*"|`[^`]*`|\'(?:\\.|[^\'\\])*\'|[A-Za-z_]\w*|\d[\w.]*')


def tokens(src):
    """One token list per code line: strings for keywords and punctuation,
    ('I', name) for identifiers, ('S',) and ('N',) for literals."""
    src = re.sub(r'/\*.*?\*/', '', src, flags=re.S)
    src = re.sub(r'^import\s*\(.*?^\)|^import\s.*$', '', src, flags=re.S | re.M)
    lines = []
    for line in src.split('\n'):
        line = re.sub(r'^\s*//.*|\s//.*', '', line)
        parts, pos = [], 0
        for m in TOKEN.finditer(line):
            parts.append(re.sub(r'\s+', '', line[pos:m.start()]))
            t = m.group(0)
            if t[0] in '"`\'':
                parts.append(('S',))
            elif t[0].isdigit():
                parts.append(('N',))
            elif t in KEYWORDS:
                parts.append(t)
            else:
                parts.append(('I', t))
            pos = m.end()
        parts.append(re.sub(r'\s+', '', line[pos:]))
        parts = [p for p in parts if p != '']
        if parts:
            lines.append(parts)
    return lines


def window_hash(window):
    names, out = {}, []
    for parts in window:
        for p in parts:
            if not isinstance(p, tuple):
                out.append(p)
            elif p[0] == 'I':
                out.append('I%d' % names.setdefault(p[1], len(names)))
            else:
                out.append(p[0])
        out.append('\n')
    return hashlib.sha1(''.join(out).encode()).digest()


def main(root, top):
    owners = collections.defaultdict(set)  # window hash -> files it occurs in
    for dirpath, dirnames, files in os.walk(root):
        dirnames[:] = [d for d in dirnames if not d.startswith('.')
                       and os.path.join(dirpath, d) != os.path.join(root, 'benchmark')]
        for name in files:
            if not name.endswith('.go') or name.endswith('_test.go'):
                continue
            path = os.path.join(dirpath, name)
            with open(path, encoding='utf-8') as f:
                lines = tokens(f.read())
            for i in range(len(lines) - WINDOW + 1):
                owners[window_hash(lines[i:i + WINDOW])].add(os.path.relpath(path, root))
    pairs = collections.Counter()
    for files in owners.values():
        for pair in itertools.combinations(sorted(files), 2):
            pairs[pair] += 1
    print(f"shared {WINDOW}-line windows (identifiers normalised), top {top} of {len(pairs)} file pairs:")
    for (a, b), n in pairs.most_common(top):
        print(f"{n:5d}  {a}  <->  {b}")


USAGE = 'usage: dup.py [ROOT [COUNT]]  (COUNT: how many file pairs to print, default 10)'

if __name__ == '__main__':
    args = sys.argv[1:]
    if len(args) > 2 or (len(args) == 2 and not args[1].isdigit()) or args[:1] in (['-h'], ['--help']):
        print(USAGE, file=sys.stderr)
        sys.exit(2)
    main(args[0] if args else '.', int(args[1]) if len(args) > 1 else 10)
