package panda

// Brokerage internals for the external oracle tests.

func (s *System) InputBytesBySite(j *Job) []int64 { return s.inputBytesBySite(j) }

func (s *System) BestDataSite(j *Job) int { return s.bestDataSite(j) }
