"""Qualitative scorecard: one comparable 1..5 rating per method and aspect.

Measures each applicable method on a layer (space size, best and worst
reductions, coverage, flexibility) and maps every raw number onto a
five-level rubric, so methods with wildly different exploration spaces can
sit side by side in one table.
"""

from lowrank import CONV_METHODS, LayerDesc, method_table

layer = LayerDesc(name="conv", kind="conv2d", kernel=(3, 3), in_channels=32,
                  out_channels=64, padding="same")

table = method_table(layer, time_decomposition=False)
# every aspect any method reports, in first-reported order: a method with
# no valid rank reports no reductions or coverage
aspects = list(dict.fromkeys(a for card in table.values() for a in card))

print(f"layer: {layer.kind} kernel={layer.kernel} "
      f"{layer.in_channels}->{layer.out_channels}\n")
def fmt_raw(raw):
    if isinstance(raw, str):
        return raw
    if isinstance(raw, float):
        return f"{raw:.1f}"
    return f"{raw:.1e}" if raw >= 100000 else str(raw)


width = max(len(a) for a in aspects)
header = " ".join(f"{m:>16}" for m in CONV_METHODS)
print(f"{'aspect':<{width}} {header}")
for aspect in aspects:
    cells = []
    for method in CONV_METHODS:
        card = table[method].get(aspect)
        cells.append((f"{card['level']} ({fmt_raw(card['raw'])})"
                      if card else "-").rjust(16))
    print(f"{aspect:<{width}} " + " ".join(cells))

print("\nlevels run 1 (weak) to 5 (strong); raw measurements in parentheses.")
