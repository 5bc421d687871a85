//go:build go1.23

// This file is the engine's only use of iter.Pull, which needs Go 1.23.
// Its build constraint raises the language version for this file alone,
// so the module's go line stays at 1.22 and modules that require armvirt
// while declaring go 1.22 (perfbench) keep building.

package sim

import "iter"

// newCoroutine starts body as a runtime coroutine, suspended until the
// first next. Each next runs body until it calls yield (or returns);
// stop makes a pending yield return false, and a body never started
// never runs.
func newCoroutine(body func(yield func(struct{}) bool)) (next func() (struct{}, bool), stop func()) {
	return iter.Pull(body)
}
