"""Tests for values, constants, and def-use chains."""

import gc
import weakref

import pytest

from repro.benchsuite import SUITE_ORDER, load_workload
from repro.ir import types, verify_module
from repro.ir import values as V
from repro.ir.instructions import AddInst, MulInst
from repro.ir.types import LlvaTypeError
from repro.minic import compile_source


class TestConstants:
    def test_int_interning(self):
        assert V.const_int(types.INT, 5) is V.const_int(types.INT, 5)
        assert V.const_int(types.INT, 5) is not V.const_int(types.LONG, 5)

    def test_int_range_checked(self):
        with pytest.raises(LlvaTypeError):
            V.ConstantInt(types.UBYTE, 256)
        with pytest.raises(LlvaTypeError):
            V.ConstantInt(types.UBYTE, -1)

    def test_int_requires_integer_type(self):
        with pytest.raises(LlvaTypeError):
            V.ConstantInt(types.DOUBLE, 1)

    def test_bool_singletons(self):
        assert V.const_bool(True) is V.TRUE
        assert V.const_bool(False) is V.FALSE

    def test_fp_float_rounds_to_single(self):
        c = V.const_fp(types.FLOAT, 0.1)
        assert c.value != 0.1  # 0.1 is not exactly representable in f32
        d = V.const_fp(types.DOUBLE, 0.1)
        assert d.value == 0.1

    def test_null_requires_pointer(self):
        ptr = types.pointer_to(types.INT)
        assert V.const_null(ptr) is V.const_null(ptr)
        with pytest.raises(LlvaTypeError):
            V.ConstantNull(types.INT)

    def test_zero_dispatch(self):
        assert V.const_zero(types.INT).value == 0
        assert V.const_zero(types.BOOL) is V.FALSE
        assert V.const_zero(types.DOUBLE).value == 0.0
        ptr = types.pointer_to(types.INT)
        assert isinstance(V.const_zero(ptr), V.ConstantNull)
        agg = types.array_of(types.INT, 3)
        assert isinstance(V.const_zero(agg), V.ConstantZero)

    def test_string_constant(self):
        c = V.make_string_constant(b"hi")
        assert c.type is types.array_of(types.SBYTE, 3)  # NUL-terminated
        assert [e.value for e in c.elements] == [104, 105, 0]

    def test_aggregate_type_checking(self):
        with pytest.raises(LlvaTypeError):
            V.ConstantArray(types.INT, [V.const_int(types.LONG, 1)])
        s = types.struct_of([types.INT, types.DOUBLE])
        with pytest.raises(LlvaTypeError):
            V.ConstantStruct(s, [V.const_int(types.INT, 1)])
        with pytest.raises(LlvaTypeError):
            V.ConstantStruct(s, [V.const_int(types.INT, 1),
                                 V.const_int(types.INT, 2)])


class TestUseChains:
    def _fresh(self):
        # Use arguments as leaf values so constant intern pools stay clean.
        a = V.Argument(types.INT, "a", 0)
        b = V.Argument(types.INT, "b", 1)
        return a, b

    def test_operands_register_uses(self):
        a, b = self._fresh()
        inst = AddInst(a, b)
        assert list(a.users()) == [inst]
        assert list(b.users()) == [inst]
        assert inst.operands == (a, b)

    def test_same_value_twice_counts_twice(self):
        a, _ = self._fresh()
        inst = AddInst(a, a)
        assert len(a.uses) == 2

    def test_set_operand_updates_chains(self):
        a, b = self._fresh()
        c = V.Argument(types.INT, "c", 2)
        inst = AddInst(a, b)
        inst.set_operand(1, c)
        assert not b.has_uses()
        assert list(c.users()) == [inst]
        assert inst.operand(1) is c

    def test_replace_all_uses_with(self):
        a, b = self._fresh()
        c = V.Argument(types.INT, "c", 2)
        i1 = AddInst(a, b)
        i2 = MulInst(a, a)
        count = a.replace_all_uses_with(c)
        assert count == 3
        assert not a.has_uses()
        assert i1.operand(0) is c
        assert i2.operands == (c, c)

    def test_replace_with_self_rejected(self):
        a, _ = self._fresh()
        with pytest.raises(ValueError):
            a.replace_all_uses_with(a)

    def test_drop_all_references(self):
        a, b = self._fresh()
        inst = AddInst(a, b)
        inst.drop_all_references()
        assert not a.has_uses()
        assert not b.has_uses()
        assert inst.num_operands == 0

    def test_constant_operands_keep_no_uses(self):
        a, _ = self._fresh()
        seven = V.const_int(types.INT, 7)
        inst = AddInst(a, seven)
        assert not seven.has_uses()
        inst.set_operand(1, a)
        inst.set_operand(0, seven)
        inst.drop_all_references()
        assert not seven.has_uses() and not a.has_uses()


class TestInternedConstantsKeepNoUses:
    """Interned constants are shared by every module in a process; a
    use list on them would grow with every module ever built and keep
    each of those modules alive."""

    def test_compiled_rows_leave_no_uses_and_free_modules(self):
        rows = [SUITE_ORDER[i % len(SUITE_ORDER)] for i in range(20)]
        dropped = None
        for name in rows:
            module = compile_source(load_workload(name, 0.05).source,
                                    name, optimization_level=2)
            verify_module(module)
            if dropped is None:
                dropped = weakref.ref(module)
            del module
        gc.collect()
        assert dropped() is None
        interned = [V.TRUE, V.FALSE, *V._int_cache.values(),
                    *V._null_cache.values(), *V._undef_cache.values(),
                    *V._zero_cache.values()]
        assert [c for c in interned if c.uses] == []
