package core

import "gcacc/internal/gca"

// Test-only exports: the kernel lockstep tests live in package core_test
// so they can import internal/verify (which itself imports core) without
// a cycle, but they need the unexported rule.

// NewProgramRule returns the Figure-2 rule for an n-node layout. The
// result implements gca.KernelRule.
func NewProgramRule(n int) gca.Rule { return rule{lay: Layout{N: n}} }
