package core

import (
	"fmt"
	"runtime/debug"
)

// TaskPanic wraps a panic that escaped a forked task. The runtime captures
// it on the worker that ran the task and re-raises it from the Join (or
// from Run, for the root task), so parallel code gets the same
// panic-at-the-synchronization-point semantics a serial program would: in
// the C elision, the fork is a call and the panic would surface there.
type TaskPanic struct {
	// Value is the original panic value.
	Value any
	// Stack is the goroutine stack captured where the panic happened.
	Stack []byte
}

// Error makes TaskPanic usable as an error value too.
func (p *TaskPanic) Error() string { return p.String() }

func (p *TaskPanic) String() string {
	return fmt.Sprintf("fibril: panic in forked task: %v\n--- task stack ---\n%s", p.Value, p.Stack)
}

// Unwrap exposes a wrapped error panic value to errors.Is/As.
func (p *TaskPanic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// capture wraps a recovered value, preserving an existing TaskPanic (a
// panic that already crossed one join and is propagating further up).
func capture(v any) *TaskPanic {
	if tp, ok := v.(*TaskPanic); ok {
		return tp
	}
	return &TaskPanic{Value: v, Stack: debug.Stack()}
}
