"""Known-good coefficient tables for the built-in generators.

Row n lists s(n, k) for k = 0..deg: the number of Kauffman states of the
closed n-th tangle power having exactly k loops.  The verification suite and
the regression tests compare freshly computed triangles against these frozen
values; row sums are 2**(crossings * n).  Column k = 1 of the T triangle is
stored only here: ``verify`` checks it against the alternate Lucas numbers
minus 2, which it computes.
"""

TABLE_ROWS: dict[str, list[list[int]]] = {
    "T": [
        [0, 0, 0, 1],
        [0, 1, 2, 1],
        [0, 5, 8, 3],
        [0, 16, 30, 16, 2],
        [0, 45, 104, 81, 24, 2],
        [0, 121, 340, 356, 170, 35, 2],
        [0, 320, 1068, 1411, 932, 315, 48, 2],
        [0, 841, 3262, 5209, 4396, 2079, 532, 63, 2],
        [0, 2205, 9760, 18281, 18784, 11440, 4144, 840, 80, 2],
        [0, 5776, 28746, 61786, 74838, 55809, 26226, 7602, 1260, 99, 2],
        [0, 15125, 83620, 202841, 282980, 249815, 144488, 54690, 13080, 1815, 120, 2],
    ],
    "C": [
        [0, 0, 0, 1],
        [0, 1, 3, 3, 1],
        [0, 9, 22, 21, 10, 2],
        [0, 49, 141, 164, 105, 42, 10, 1],
        [0, 225, 796, 1186, 1008, 569, 232, 67, 12, 1],
        [0, 961, 4115, 7677, 8400, 6205, 3393, 1435, 461, 105, 15, 1],
        [0, 3969, 20106, 45481, 61630, 57078, 39298, 21239, 9198, 3151, 822, 153, 18, 1],
    ],
    "E": [
        [0, 0, 0, 1],
        [0, 1, 4, 6, 4, 1],
        [0, 17, 56, 80, 64, 30, 8, 1],
        [0, 169, 660, 1120, 1096, 684, 280, 74, 12, 1],
        [0, 1377, 6640, 14112, 17504, 14128, 7808, 3008, 800, 142, 16, 1],
        [0, 10201, 59660, 156624, 244280, 252460, 182544, 94960, 35904, 9800, 1880, 242, 20, 1],
    ],
}
