"""Seeded generator of ad-hoc guest scripts for serve ``script`` submissions.

Each script composes loop kernels of the kinds the Table 1 applications
spend their loop time in: array stencils, reductions, object-field updates
and canvas writes.  Sizes are drawn from ``random.Random((seed, index))``,
and every script embeds its ``(seed, index)`` tag in a constant the kernels
read, so two indices never share sources and therefore never share a
workload fingerprint: each submission takes the daemon's cold path
(record, encode, store put, replay).

Sizes are chosen so one script records in about the time of a small
Table 1 application and stays well inside :data:`OP_BUDGET`.
"""

from __future__ import annotations

import random
from typing import List, Tuple

#: Guest operation budget every generated script must finish within.
OP_BUDGET = 2_000_000


def _stencil(rng: random.Random, tag: str) -> str:
    size = rng.randint(120, 220)
    sweeps = rng.randint(3, 6)
    return f"""
function stencil{tag}() {{
  var n = {size};
  var a = [];
  var b = [];
  for (var i = 0; i < n; i++) {{
    a.push((i * 7 + TAG) % 97);
    b.push(0);
  }}
  for (var s = 0; s < {sweeps}; s++) {{
    for (var j = 1; j < n - 1; j++) {{
      b[j] = (a[j - 1] + a[j] + a[j + 1]) / 3;
    }}
    var t = a;
    a = b;
    b = t;
  }}
  return a[n >> 1];
}}
result.push(stencil{tag}());
"""


def _reduction(rng: random.Random, tag: str) -> str:
    size = rng.randint(300, 600)
    return f"""
function reduce{tag}() {{
  var values = [];
  for (var i = 0; i < {size}; i++) {{
    values.push(((i + TAG) * 31) % 1009);
  }}
  var sum = 0;
  var best = -1;
  for (var k = 0; k < values.length; k++) {{
    sum += values[k];
    if (values[k] > best) {{
      best = values[k];
    }}
  }}
  return sum + best;
}}
result.push(reduce{tag}());
"""


def _particles(rng: random.Random, tag: str) -> str:
    count = rng.randint(30, 60)
    steps = rng.randint(4, 8)
    return f"""
function particles{tag}() {{
  var ps = [];
  for (var i = 0; i < {count}; i++) {{
    ps.push({{x: i, y: (i * 3 + TAG) % 17, vx: 1, vy: -1}});
  }}
  for (var step = 0; step < {steps}; step++) {{
    for (var k = 0; k < ps.length; k++) {{
      var p = ps[k];
      p.x = p.x + p.vx;
      p.y = p.y + p.vy;
      if (p.y < 0) {{
        p.vy = -p.vy;
      }}
    }}
  }}
  return ps[0].x + ps[ps.length - 1].y;
}}
result.push(particles{tag}());
"""


def _canvas(rng: random.Random, tag: str) -> str:
    width = rng.randint(12, 24)
    height = rng.randint(8, 16)
    return f"""
function paint{tag}() {{
  var canvas = document.createElement("canvas");
  var ctx = canvas.getContext("2d");
  var drawn = 0;
  for (var y = 0; y < {height}; y++) {{
    for (var x = 0; x < {width}; x++) {{
      if ((x + y + TAG) % 3 == 0) {{
        ctx.fillRect(x, y, 1, 1);
        drawn++;
      }}
    }}
  }}
  return drawn;
}}
result.push(paint{tag}());
"""


KERNELS = (_stencil, _reduction, _particles, _canvas)


def generate(seed: int, index: int) -> Tuple[str, List[Tuple[str, str]]]:
    """The ``index``-th script for ``seed``: ``(name, [(path, source)])``.

    Every kernel kind appears once, in a seeded order; the shuffled kernels
    plus a seeded extra kernel give each script its own loop mix.
    """
    rng = random.Random(f"{seed}:{index}")
    kernels = list(KERNELS)
    rng.shuffle(kernels)
    kernels.append(rng.choice(KERNELS))
    tag = seed * 100_000 + index
    parts = [f"var TAG = {tag};\nvar result = [];\n"]
    parts.extend(kernel(rng, str(position)) for position, kernel in enumerate(kernels))
    name = f"generated-{seed}-{index}"
    return name, [(f"{name}.js", "".join(parts))]


def submission(seed: int, index: int, modes: List[str]) -> dict:
    """The serve request body for the ``index``-th generated script."""
    name, sources = generate(seed, index)
    return {
        "script": {
            "name": name,
            "sources": [{"path": path, "source": source} for path, source in sources],
        },
        "modes": list(modes),
    }
