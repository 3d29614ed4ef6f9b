module fibril/benchmark

go 1.22

require fibril v0.0.0

replace fibril => ../
