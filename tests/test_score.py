import pytest

from lowrank.errors import RankError
from lowrank.ir import LayerDesc
from lowrank.score import rank_slot_count


def fc(m, n):
    return LayerDesc(name="F", kind="fc", in_channels=m, out_channels=n)


class TestRankSlotCount:
    @pytest.mark.parametrize("dims, slots", [((400, 120), 3), ((512, 512), 3),
                                             ((12, 10), 2)])
    def test_t3f_counts_the_deepest_box_and_the_plan(self, dims, slots):
        # depth-3 plans have two link ranks, depth-2 plans one; several
        # plans add the plan choice
        assert rank_slot_count(fc(*dims), "t3f") == slots

    def test_fc_methods_and_conv_methods(self):
        conv = LayerDesc(name="L", kind="conv2d", kernel=(3, 3), in_channels=4,
                         out_channels=6)
        assert rank_slot_count(fc(12, 10), "svd") == 1
        assert [rank_slot_count(conv, m) for m in ("tucker2", "cp", "tt")] \
            == [2, 1, 3]

    def test_fc_without_t3f_plan(self):
        with pytest.raises(RankError, match=r"no factorization plan for "
                                            r"\(7, 11\)"):
            rank_slot_count(fc(7, 11), "t3f")
