"""
From a forest to a parking function, step by step
==================================================

Every rooted labeled forest on n vertices turns into a parking function
of length n, and nothing about the forest is lost on the way.  This
walks the forward map on a small forest, printing each intermediate.
"""

from parkforest import Forest, canonical_order
from parkforest.bijection import map_trace

# The forest, as a parent sequence: parent[v-1] is the parent of vertex v,
# with 0 marking a root.  Here 2 and 5 are roots; 2 owns 1 and 4; 4 owns 3.
f = Forest((2, 0, 4, 2, 0))
print("parent sequence:", f.parent)

# Steps 1 and 2: fix the drawing, under one super-root labeled n+1 that
# adopts the roots, so a forest question becomes a tree question.
# Children (and the roots) are ordered by the largest label in their
# subtree, biggest first.  This choice is what the whole construction
# hangs on: it makes the map reversible.
t = canonical_order(f)
print("roots, canonically ordered:", t.children[t.root])
for v in range(1, f.n + 1):
    if t.children[v]:
        print(f"  children of {v}:", t.children[v])
print("super-root:", t.root, "with children", t.children[t.root])

# Steps 3-5, all at once via the trace: each vertex gets its postorder
# position, its inversion count (strict descendants with smaller labels),
# and a fresh label making every subtree top-heavy.
trace = map_trace(f)
print("postorder:", trace["postorder"])
print()
print("car  vertex  position  inversions  preference")
for row in trace["rows"]:
    print(
        f"{row['car']:>3}  {row['vertex']:>6}  {row['position']:>8}"
        f"  {row['inversions']:>10}  {row['preference']:>10}"
    )

# The preference of car j is position - inversions of the vertex that
# received label j.  The super-root's car always prefers space 1 and is
# dropped; what remains is the parking function.
print()
print("parking function:", trace["parking"])
print("vertex -> car   :", trace["labelMap"]["vertexToCar"])

# The same thing in one call, when the intermediates are not wanted:
from parkforest import forest_to_parking

p, label_map = forest_to_parking(f)
assert list(p) == trace["parking"]
print("forest_to_parking agrees:", p)
