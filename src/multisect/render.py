"""Schematic chord-diagram rendering of multisection diagrams.

The central surface appears as a 4G-gon with the usual side pairing
a b a' b' per handle; each letter of a curve word marks a point on the
matching edge and consecutive letters are joined by straight chords.
One stroke style per system, with a small radial inset so parallel
systems stay visible.  The picture is a combinatorial schematic, not an
isotopy-faithful embedding of the curves.
"""

from __future__ import annotations

from math import cos, pi, sin

from .diagrams import MultisectionDiagram
from .words import Word, format_word

PALETTE = ("#c0392b", "#2980b9", "#27ae60", "#e67e22", "#8e44ad",
           "#16a085", "#7f8c8d", "#2c3e50")
DASHES = ("none", "6,3", "2,3", "8,3,2,3", "4,2", "1,3", "10,4", "3,1")


def _edge_index(letter: int) -> int:
    k = abs(letter)
    pair = (k + 1) // 2
    base = 4 * (pair - 1)
    if k % 2 == 1:  # a-type
        return base if letter > 0 else base + 2
    return base + 1 if letter > 0 else base + 3


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def diagram_to_svg(d: MultisectionDiagram, size: int = 640) -> str:
    genus = d.surface.genus
    cx = cy = size / 2
    radius = size * 0.42
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
             f'height="{size}" viewBox="0 0 {size} {size}">',
             f'<rect width="{size}" height="{size}" fill="white"/>']
    title = f"genus {genus}, {'closed' if d.closed else 'bounded'}, " \
            f"{len(d.systems)} systems"
    parts.append(f'<text x="{_fmt(size / 2)}" y="20" text-anchor="middle" '
                 f'font-size="14">{title}</text>')

    if genus == 0:
        parts.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(radius)}" '
                     'fill="none" stroke="black"/>')
        parts.append("</svg>")
        return "\n".join(parts) + "\n"

    sides = 4 * genus
    verts = []
    for v in range(sides):
        angle = 2 * pi * v / sides - pi / 2
        verts.append((cx + radius * cos(angle), cy + radius * sin(angle)))

    parts.append('<g stroke="black" fill="none">')
    for v in range(sides):
        x1, y1 = verts[v]
        x2, y2 = verts[(v + 1) % sides]
        parts.append(f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
                     f'x2="{_fmt(x2)}" y2="{_fmt(y2)}"/>')
    parts.append("</g>")

    # edge labels: g<k> on the positive edge, g<k>* on the inverse edge
    for k in range(1, 2 * genus + 1):
        name = format_word(Word(2 * genus, (k,)))
        for sign, mark in ((1, ""), (-1, "*")):
            e = _edge_index(sign * k)
            x1, y1 = verts[e]
            x2, y2 = verts[(e + 1) % sides]
            mx = cx + (((x1 + x2) / 2) - cx) * 1.08
            my = cy + (((y1 + y2) / 2) - cy) * 1.08
            parts.append(f'<text x="{_fmt(mx)}" y="{_fmt(my)}" '
                         f'text-anchor="middle" font-size="11">{name}{mark}</text>')

    # insets fall by 0.035 a system to 0.3 at the 21st; more systems share that span
    step = 0.035 if len(d.systems) <= 21 else 0.7 / (len(d.systems) - 1)
    for sys_idx, system in enumerate(d.systems):
        color = PALETTE[sys_idx % len(PALETTE)]
        dash = DASHES[sys_idx % len(DASHES)]
        inset = 1.0 - step * sys_idx
        dash_attr = f' stroke-dasharray="{dash}"' if dash != "none" else ""
        # labels may hold the characters that XML attributes reserve
        label = system.label.replace("&", "&amp;").replace("<", "&lt;").replace('"', "&quot;")
        parts.append(f'<g stroke="{color}" fill="none" stroke-width="1.4"'
                     f'{dash_attr} data-system="{label}">')
        for curve in system.curves:
            points = []
            length = len(curve.letters)
            for pos, lt in enumerate(curve.letters):
                e = _edge_index(lt)
                x1, y1 = verts[e]
                x2, y2 = verts[(e + 1) % sides]
                t = (pos + 1) / (length + 1)
                px = x1 + (x2 - x1) * t
                py = y1 + (y2 - y1) * t
                px = cx + (px - cx) * inset
                py = cy + (py - cy) * inset
                points.append(f"{_fmt(px)},{_fmt(py)}")
            if points:
                parts.append(f'<polygon points="{" ".join(points)}" '
                             'fill="none"/>')
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
