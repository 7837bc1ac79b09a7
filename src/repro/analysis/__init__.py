"""Analysis: the experiment workbench, renderers, and figure modules."""
