// Package wake is the one way the engines block: a request that must
// wait for another node's step registers under the mutex that guards
// the state it waits on, unlocks, and waits; whoever changes that state
// broadcasts under the same mutex.  Registering before unlocking means
// no broadcast between the waiter's last look and its wait is lost.
package wake

import "time"

// List holds the waiters registered since its last broadcast.  Its zero
// value is ready; its owner's mutex guards it.
type List struct {
	ch chan struct{} // closed by the next broadcast; nil: no waiter yet
}

// Waiter is one registration: it is woken by the first broadcast after
// it registered.
type Waiter struct{ ch chan struct{} }

// Add registers a waiter.  Called with the owner's mutex held.
func (l *List) Add() Waiter {
	if l.ch == nil {
		l.ch = make(chan struct{})
	}
	return Waiter{l.ch}
}

// Broadcast wakes every registered waiter.  Called with the owner's
// mutex held; with no waiter it does nothing.
func (l *List) Broadcast() {
	if l.ch != nil {
		close(l.ch)
		l.ch = nil
	}
}

// Wait blocks until w is woken and reports true, or until the deadline
// passes and reports false.  A zero deadline never passes.  Called
// without the owner's mutex.
func (w Waiter) Wait(deadline time.Time) bool {
	if deadline.IsZero() {
		<-w.ch
		return true
	}
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case <-w.ch:
		return true
	case <-timer.C:
		return false
	}
}
