package core_test

import (
	"testing"

	"gcacc/internal/core"
	"gcacc/internal/gca"
	"gcacc/internal/verify"
)

// genericOnly hides the rule's KernelFor so the machine falls back to the
// per-cell Pointer/Update path: interface embedding promotes only the
// Rule methods, so the gca.KernelRule assertion in NewMachine fails.
type genericOnly struct{ gca.Rule }

// TestKernelLockstepOnCorpus steps a kernel-path machine and a
// generic-path machine through the full schedule of every conformance
// corpus case and requires them to agree bit for bit after every
// committed sub-generation — field contents, active-cell count and read
// count. This is the contract that makes the fast path safe: it must be
// observationally indistinguishable from the reference semantics, not
// merely produce the same final labelling.
func TestKernelLockstepOnCorpus(t *testing.T) {
	// Budgets 9 and 16 exercise both the non-power-of-two guards of the
	// reduction generations and the clean power-of-two schedule.
	for _, budget := range []int{9, 16} {
		for _, c := range verify.Corpus(budget, 1) {
			n := c.Graph.N()
			if n == 0 {
				continue
			}
			kernelField := core.NewProgramField(c.Graph)
			genericField := core.NewProgramField(c.Graph)
			km := gca.NewMachine(kernelField, core.NewProgramRule(n), gca.WithWorkers(2))
			gm := gca.NewMachine(genericField, genericOnly{core.NewProgramRule(n)}, gca.WithWorkers(1))

			var kSnap, gSnap []gca.Value
			for step, ctx := range core.Schedule(n, 0) {
				ks, err := km.Step(ctx)
				if err != nil {
					t.Fatalf("%s (budget %d): kernel path step %d: %v", c.Name, budget, step, err)
				}
				kActive, kReads := ks.Active, ks.TotalReads
				gs, err := gm.Step(ctx)
				if err != nil {
					t.Fatalf("%s (budget %d): generic path step %d: %v", c.Name, budget, step, err)
				}
				if kActive != gs.Active || kReads != gs.TotalReads {
					t.Fatalf("%s (budget %d): step %d (gen %d sub %d): stats diverge: kernel active=%d reads=%d, generic active=%d reads=%d",
						c.Name, budget, step, ctx.Generation, ctx.Sub, kActive, kReads, gs.Active, gs.TotalReads)
				}
				kSnap = kernelField.Snapshot(kSnap[:0])
				gSnap = genericField.Snapshot(gSnap[:0])
				for i := range kSnap {
					if kSnap[i] != gSnap[i] {
						t.Fatalf("%s (budget %d): step %d (gen %d sub %d): cell %d diverges: kernel %d, generic %d",
							c.Name, budget, step, ctx.Generation, ctx.Sub, i, kSnap[i], gSnap[i])
					}
				}
			}
			km.Close()
			gm.Close()
		}
	}
}

// TestKernelCoversEveryGeneration pins the fast path exhaustive: every
// generation of the schedule must resolve to a bulk kernel, so no step of
// a production run silently falls back to interface dispatch.
func TestKernelCoversEveryGeneration(t *testing.T) {
	r, ok := core.NewProgramRule(8).(gca.KernelRule)
	if !ok {
		t.Fatal("program rule does not implement gca.KernelRule")
	}
	for _, ctx := range core.Schedule(8, 0) {
		if r.KernelFor(ctx) == nil {
			t.Errorf("generation %d sub %d has no kernel", ctx.Generation, ctx.Sub)
		}
	}
}

// TestKernelShortcutRangeError pins the kernel path's error behaviour to
// the generic path's: an invalid C value in generation 10 must abort the
// step with the machine's out-of-range pointer report.
func TestKernelShortcutRangeError(t *testing.T) {
	n := 4
	lay := core.Layout{N: n}
	for _, generic := range []bool{false, true} {
		field := gca.NewField(lay.Size())
		// Column 0 holds an out-of-range component label.
		field.SetData(lay.ColumnZero(0), gca.Value(n+3))
		r := core.NewProgramRule(n)
		if generic {
			r = genericOnly{r}
		}
		m := gca.NewMachine(field, r, gca.WithWorkers(1))
		_, err := m.Step(gca.Context{Generation: core.GenShortcut})
		m.Close()
		if err == nil {
			t.Fatalf("generic=%v: invalid C value not reported", generic)
		}
	}
}
