package vmm

import "es2/internal/sim"

// Prio is the priority of guest work inside one vCPU. It models the
// guest kernel's execution contexts: hardware interrupt handlers
// preempt softirq, softirq preempts process context, and the idle class
// only runs when nothing else is runnable (the paper's lowest-priority
// CPU-burn script lives there).
type Prio int

const (
	// PrioIRQ is hardware-interrupt context.
	PrioIRQ Prio = iota
	// PrioSoftirq is softirq/bottom-half context (NAPI polling).
	PrioSoftirq
	// PrioTask is ordinary process context.
	PrioTask
	// PrioIdle is the idle class (CPU-burn fillers).
	PrioIdle

	numPrios = iota
)

// Task is a unit of guest CPU work executed on a vCPU. Tasks are
// one-shot: long-running guest activities re-enqueue themselves from
// OnComplete. A task preempted by a higher-priority task (or by the
// host scheduler) keeps its remaining time and resumes later.
// EnqueueTask copies a Task field by field into a taskSlot, so a new
// field must be added to the slot and copied there too.
type Task struct {
	Name      string
	Prio      Prio
	Remaining sim.Time
	// OnComplete runs when the task's time is fully consumed. It runs
	// in guest context: it may enqueue tasks, send packets, trigger
	// exits, and so on.
	OnComplete func()
}

// NewTask is a convenience constructor. The task it returns can stay
// on the caller's stack: EnqueueTask copies it.
func NewTask(name string, prio Prio, d sim.Time, fn func()) *Task {
	return &Task{Name: name, Prio: prio, Remaining: d, OnComplete: fn}
}

// taskSlot is a task as a vCPU queues it, 40 bytes. Its priority is the
// index of the ring that holds it, so the slot does not repeat it.
type taskSlot struct {
	name       string
	remaining  sim.Time
	onComplete func()
	// irq marks an interrupt handler: its EOI follows onComplete.
	irq bool
}
