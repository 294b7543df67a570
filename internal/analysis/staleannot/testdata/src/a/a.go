// Package a holds the staleannot golden cases: a suppression that earns
// its keep, one that suppresses nothing, a typo'd directive name, a
// directive no analyzer knows any more, and declaration directives that are
// exempt by design.
//
//mgsp:lock-order flusher.flushMu < flusher.sizeMu
package a

import (
	"nvm"
	"sim"
)

// usedSuppression: the WriteNT-reaches-Store8 shape is a real persistorder
// finding; the annotation suppresses it and is therefore not stale.
func usedSuppression(ctx *sim.Ctx, dev *nvm.Device, data []byte) {
	dev.WriteNT(ctx, data, 128) //mgsp:deferred-persist caller fences before its commit
	dev.Store8(ctx, 0, 1)
}

// staleSuppression: the fence is right there, nothing is suppressed.
func staleSuppression(ctx *sim.Ctx, dev *nvm.Device, data []byte) {
	dev.WriteNT(ctx, data, 128) //mgsp:deferred-persist nothing left to justify // want `stale //mgsp:deferred-persist annotation`
	dev.Fence(ctx)
}

// typoSuppression: a misspelled name silently suppresses nothing.
func typoSuppression(ctx *sim.Ctx, dev *nvm.Device, data []byte) {
	dev.WriteNT(ctx, data, 128) //mgsp:defered-persist typo'd name // want `unknown //mgsp: directive "defered-persist"`
	dev.Fence(ctx)
}

// retiredSuppression: crash-locked gated a pass that no longer exists, so a
// leftover is as unknown as a typo.
func retiredSuppression(ctx *sim.Ctx, dev *nvm.Device, data []byte) {
	dev.WriteNT(ctx, data, 128) //mgsp:crash-locked no pass reads this // want `unknown //mgsp: directive "crash-locked"`
	dev.Fence(ctx)
}
