package sim

// Mutex is a FIFO-fair mutual-exclusion lock for procs.
type Mutex struct {
	locked  bool
	waiters []Ticket
}

// Lock blocks the proc until the mutex is acquired.
func (m *Mutex) Lock(p *Proc) {
	for m.locked {
		t := p.prepare()
		m.waiters = append(m.waiters, t)
		p.Park()
	}
	m.locked = true
}

// TryLock acquires the mutex if free.
func (m *Mutex) TryLock() bool {
	if m.locked {
		return false
	}
	m.locked = true
	return true
}

// Unlock releases the mutex and wakes the first waiter.
func (m *Mutex) Unlock() {
	if !m.locked {
		panic("sim: Unlock of unlocked Mutex")
	}
	m.locked = false
	if len(m.waiters) > 0 {
		t := m.waiters[0]
		m.waiters = m.waiters[1:]
		t.Wake()
	}
}
