package sim

// DrainFreeScratch empties the stepper scratch free list, so that the next
// stepper takes the scratch the next Finish returns.
func DrainFreeScratch() {
	for {
		select {
		case <-freeScratch:
		default:
			return
		}
	}
}
