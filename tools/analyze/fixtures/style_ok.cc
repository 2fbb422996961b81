// Companion fixture: clean layout, plus one over-long line carrying a
// suppression — the self-test proves allow(style) suppresses.
int spaced() {
  return 1;
}
// analyze: allow(style): a URL cannot wrap
// https://example.com/a/very/long/path/that/cannot/be/wrapped/without/breaking/it
