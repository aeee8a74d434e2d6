"""Words, moves, commutation classes, and the heap rotation.

Walks the word-side machinery at desk scale: the canonical staircase word,
its moves, the reduced-word graph, and how dropping heaps turns the
commutation class into standard fillings of the staircase shape.
"""

from braidhooks import (
    Permutation,
    Shape,
    all_reduced_words,
    braid_move_stats,
    commutation_class,
    heap_poset,
    list_moves,
    matsumoto_graph,
    nu,
    nu_inverse,
    staircase_word,
    standard_tableaux,
    trapezoid_word,
)
from braidhooks.tableaux import tableau_to_text

print("== the canonical word for the longest element of S5 ==")
w0 = staircase_word(5)
print("word:", w0)
print("sites:", ", ".join(f"{s.kind}@{s.position}" for s in list_moves(w0)))

print("\n== its commutation class ==")
cls = commutation_class(w0)
print(f"{len(cls)} words:", ", ".join(str(w) for w in cls))
stats = braid_move_stats(cls)
print(f"braid moves in the class: {stats['total']}  (mean {stats['mean']} per word)")

print("\n== the full reduced-word graph for S4 ==")
graph = matsumoto_graph(Permutation.longest(4))
print(f"{len(graph.vertices)} words, {graph.braid_edge_count()} braid edges,",
      "connected" if graph.is_connected() else "disconnected")
print("as expected, braid edges = half the word count:",
      2 * graph.braid_edge_count() == len(graph.vertices))

print("\n== rotating the heap onto the staircase ==")
shape = Shape.right((4, 3, 2, 1))
poset = heap_poset(w0)
print(f"heap of {w0}: {poset.size} pieces in columns"
      f" {sorted({column for column, _ in poset.elements})}")
t = nu(w0, shape)
print("the drop order, as a standard filling:")
print(tableau_to_text(t))
print("reading it back:", nu_inverse(t))

print("\n== each word of the class is one filling ==")
images = sorted(nu(w, shape) for w in cls)
print(f"distinct fillings: {len(set(images))} = |ShSYT((4,3,2,1))| =",
      len(standard_tableaux(shape)))

print("\n== trapezoids work the same way ==")
wt = trapezoid_word(2)
half = Shape.half_right((5, 3, 1))
print("word:", wt, " class size:", len(commutation_class(wt)),
      " fillings:", len(standard_tableaux(half)))
print(tableau_to_text(nu(wt, half)))

print("\n== every reduced word counts its own braid moves (rank 3..5) ==")
for n in (3, 4, 5):
    red = all_reduced_words(Permutation.longest(n))
    stats = braid_move_stats(red)
    print(f"rank {n}: {len(red)} words, {stats['total']} braid-move sites,"
          f" mean {stats['mean']}")
