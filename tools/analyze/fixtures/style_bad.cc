// Sabotage fixture: every style rule must fire on this file. WILL_FAIL.
int tabbed() {
	return 1;
}
int trailing() { return 2; }   
// This comment runs past the eighty-column limit that .clang-format sets for us.
int last() { return 3; }

